package sql

import (
	"strings"
	"testing"
)

// FuzzParse drives the lexer and recursive-descent parser with arbitrary
// input. The contract: Parse never panics, the errors it returns are
// package-tagged (prefixed "sql:") so callers can distinguish syntax
// errors from engine faults, and an accepted window clause round-trips —
// its Loop.String() parses back to a loop that renders identically.
func FuzzParse(f *testing.F) {
	f.Add("SELECT * FROM S")
	f.Add("SELECT closingPrice, timestamp FROM ClosingStockPrices WHERE stockSymbol = 'MSFT'")
	f.Add("SELECT AVG(closingPrice) FROM ClosingStockPrices WHERE stockSymbol = 'IBM' " +
		"for (t = 101; t <= 1100; t++) { WindowIs(ClosingStockPrices, t - 4, t); }")
	f.Add("SELECT a.x, b.y FROM A AS a, B b WHERE a.x = b.y AND a.z > 3.5 GROUP BY a.x")
	f.Add("SELECT DISTINCT x FROM S ORDER BY x DESC LIMIT 10;")
	f.Add("SELECT COUNT(*) FROM S GROUP BY k")
	f.Add("SELECT x FROM S WHERE x <> -7 -- trailing comment")
	f.Add("SELECT x FROM S for (;;) { WindowIs(S, 1, t); }")
	f.Add("SELECT x FROM S WHERE s = 'unterminated")
	f.Add("SELECT \x00")
	f.Fuzz(func(t *testing.T, input string) {
		checkParse(t, input)
	})
}

// FuzzParseLoop aims the same contract at the window clause: each input is
// a for-loop, parsed as the tail of a query over S, so the fuzzer spends
// its mutations on the loop grammar rather than on the SELECT list.
func FuzzParseLoop(f *testing.F) {
	f.Add("for (t = 101; t <= 1100; t++) { WindowIs(ClosingStockPrices, t - 4, t); }")
	f.Add("for (;;) {}")
	f.Add("for (t = 5; t > 0; t = -1) { WindowIs(S, 1, 10); }")
	f.Add("for (t = 1; ; t += 10) { WindowIs(A, t, t + 9); WindowIs(B, 0, t) }")
	f.Add("for (t = 10; t >= 0; t--) { WindowIs(S, t, t + 5); }")
	f.Add("for (t = -3; t <> 7; t += 2) { WindowIs(A, 0, t); }")
	f.Add("for (t = 0; t == 0; t++) { WindowIs(S, 0, 0); }")
	f.Add("for (t")
	f.Add("for (t = 99999999999999999999;;) {}")
	f.Fuzz(func(t *testing.T, loop string) {
		checkParse(t, "SELECT * FROM S "+loop)
	})
}

// checkParse holds the contract both fuzz targets check on one input.
func checkParse(t *testing.T, input string) {
	t.Helper()
	q, err := Parse(input)
	if err != nil {
		if !strings.HasPrefix(err.Error(), "sql:") {
			t.Fatalf("untagged error for %q: %v", input, err)
		}
		return
	}
	if q == nil {
		t.Fatalf("nil query without error for %q", input)
	}
	if q.Loop == nil {
		return
	}
	rendered := q.Loop.String()
	back, err := Parse("SELECT * FROM S " + rendered)
	if err != nil {
		t.Fatalf("accepted %q but re-parse of its loop %q failed: %v", input, rendered, err)
	}
	if got := back.Loop.String(); got != rendered {
		t.Fatalf("round trip of %q: %q != %q", input, got, rendered)
	}
}
