module telegraphcq/benchmark

go 1.22

require telegraphcq v0.0.0

replace telegraphcq => ../
