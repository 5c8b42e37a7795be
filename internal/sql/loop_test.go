package sql

import (
	"strings"
	"testing"

	"telegraphcq/internal/expr"
	"telegraphcq/internal/window"
)

// loopOf parses a query over S whose window clause is loop.
func loopOf(loop string) (*window.Loop, error) {
	q, err := Parse("SELECT * FROM S " + loop)
	if err != nil {
		return nil, err
	}
	return q.Loop, nil
}

// TestParseLoopShapes parses the paper's loop forms and checks the loop
// each one describes.
func TestParseLoopShapes(t *testing.T) {
	for _, tc := range []struct {
		name, loop string
		check      func(t *testing.T, l *window.Loop)
	}{
		{"sliding", "for (t = 101; t <= 1100; t++) { WindowIs(S, t - 4, t); }", func(t *testing.T, l *window.Loop) {
			if l.Init != 101 || l.Step != 1 {
				t.Errorf("init=%d step=%d", l.Init, l.Step)
			}
			if l.Cond.Always || l.Cond.Op != expr.Le || l.Cond.Bound != 1100 {
				t.Errorf("cond = %+v", l.Cond)
			}
			if len(l.Windows) != 1 {
				t.Fatalf("windows = %d", len(l.Windows))
			}
			if w := l.Windows[0]; w.Stream != "S" || w.Left != window.T(-4) || w.Right != window.T(0) {
				t.Errorf("window = %+v", w)
			}
			if l.Classify() != window.ShapeSliding {
				t.Errorf("shape = %v", l.Classify())
			}
		}},
		// Empty init, condition and change: run forever from 0 with step 1.
		{"defaults", "for (;;) { WindowIs(S, 1, t); }", func(t *testing.T, l *window.Loop) {
			if l.Init != 0 || l.Step != 1 || !l.Cond.Always {
				t.Errorf("loop = %+v", l)
			}
			if l.Classify() != window.ShapeLandmark {
				t.Errorf("shape = %v", l.Classify())
			}
		}},
		// Paper Example 1: "t = -1" leaves the condition after one iteration.
		{"reassignment", "for (t = 5; t > 0; t = -1) { WindowIs(S, 1, 10); }", func(t *testing.T, l *window.Loop) {
			if l.Step != -6 {
				t.Errorf("step = %d, want -6", l.Step)
			}
			if n := l.Instances(100, func(window.Instance) bool { return true }); n != 1 {
				t.Errorf("instances = %d, want 1", n)
			}
		}},
		{"multi-stream", "for (t = 1; ; t += 10) { WindowIs(A, t, t + 9); WindowIs(B, 0, t); }", func(t *testing.T, l *window.Loop) {
			if len(l.Windows) != 2 {
				t.Fatalf("windows = %d", len(l.Windows))
			}
			if _, ok := l.WindowFor("B"); !ok {
				t.Error("stream B missing")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := loopOf(tc.loop)
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, l)
		})
	}
}

// TestParseLoopErrors: every malformed loop is refused, and the error
// names what was wrong.
func TestParseLoopErrors(t *testing.T) {
	for in, want := range map[string]string{
		"(t = 1;;) {}":                                    "unexpected",
		"for t = 1;;) {}":                                 `expected "("`,
		"for (x = 1;;) {}":                                "loop variable must be 't'",
		"for (t 1;;) {}":                                  "expected '='",
		"for (t = 1; t ! 2;) {}":                          "expected comparison operator",
		"for (t = 1;; t**) {}":                            "expected loop change",
		"for (t = 1;;) { WindowIs(S, t, t) ":              "found end of input",
		"for (t = 1;;) { Window(S, t, t); }":              "expected WINDOWIS",
		"for (t = 1;;) { WindowIs(, t, t); }":             "expected identifier",
		"for (t = 1;;) { WindowIs(S, t); }":               `expected ","`,
		"for (t = 1;;) {} trailing":                       "unexpected",
		"for (t = 99999999999999999999;;) {}":             "bad number",
		"for (t = 1.5;;) {}":                              "expected integer",
		"for (t = 1; t < 2; t = -9223372036854775807) {}": "overflows",
	} {
		_, err := loopOf(in)
		if err == nil {
			t.Errorf("%q: parse succeeded", in)
			continue
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %q does not mention %q", in, err, want)
		}
	}
}

// TestParseLoopRoundTrip: a loop's String parses back to the same loop.
func TestParseLoopRoundTrip(t *testing.T) {
	for _, in := range []string{
		"for (t = 101; t <= 1100; t++) { WindowIs(S, t - 4, t); }",
		"for (;;) {}",
		"for (t = -3; t <> 7; t += 2) { WindowIs(A, 0, t); WindowIs(B, t, t + 1); }",
		"for (t = 10; t >= 0; t--) { WindowIs(S, t, t + 5); }",
	} {
		l, err := loopOf(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		back, err := loopOf(l.String())
		if err != nil {
			t.Fatalf("re-parse of %q: %v", l.String(), err)
		}
		if back.String() != l.String() {
			t.Errorf("round trip: %q != %q", back.String(), l.String())
		}
	}
}
