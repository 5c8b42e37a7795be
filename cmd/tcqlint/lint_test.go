package main

import (
	"testing"

	"telegraphcq/internal/lint"
	"telegraphcq/internal/lint/checks"
)

// The fixtures under testdata/src are analysistest-style: every expected
// diagnostic is declared with a `// want "regexp"` comment, and the run
// fails on both unexpected and missing findings. Each fixture also
// carries negative cases proving the analyzer's allowed idioms stay
// silent; the clockcheck fixture exercises //lint:ignore suppression.

func TestClockCheckFixture(t *testing.T) {
	lint.RunFixture(t, "testdata/src/clockcheck", checks.ClockCheck())
}

func TestOwnerCheckFixture(t *testing.T) {
	lint.RunFixture(t, "testdata/src/ownercheck", checks.OwnerCheck(checks.NewRepoSummaries()))
}

func TestAllocCheckFixture(t *testing.T) {
	lint.RunFixture(t, "testdata/src/alloccheck", checks.AllocCheck(checks.NewRepoSummaries()))
}

func TestLockCheckFixture(t *testing.T) {
	order := []checks.LockClass{
		{Path: "fixture/lockcheck", Type: "Outer", Field: "mu"},
		{Path: "fixture/lockcheck", Type: "Inner", Field: "mu"},
	}
	lint.RunFixture(t, "testdata/src/lockcheck", checks.LockCheck(order))
}
