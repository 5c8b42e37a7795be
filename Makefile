GO ?= go

.PHONY: check build test race vet bench chaos fuzz soak

check: ## every check.sh stage: lint, test, race, bench smoke
	./scripts/check.sh

chaos: ## full 200-trial chaos campaign (CHAOS_SEED/CHAOS_TRIALS honoured)
	$(GO) test -count=1 -run 'TestChaos' ./internal/chaos/

fuzz: ## longer fuzz pass over the SQL (window clause included) and CSV parsers
	$(GO) test -fuzz='^FuzzParse$$' -fuzztime=60s -run '^$$' ./internal/sql/
	$(GO) test -fuzz=FuzzParseLoop -fuzztime=60s -run '^$$' ./internal/sql/
	$(GO) test -fuzz=FuzzParseCSV -fuzztime=60s -run '^$$' ./internal/ingress/

soak: ## 10k-tuple full-pipeline soak under a fixed chaos seed
	$(GO) test -count=1 -run 'TestChaosSoakFullPipeline' ./internal/chaos/

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

bench: ## run the repository benchmark: all four workloads -> benchmark/out/BENCH_<commit>.json
	cd benchmark && $(GO) run .
