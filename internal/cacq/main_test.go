package cacq

import (
	"testing"

	"telegraphcq/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
