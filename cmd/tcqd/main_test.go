package main

import (
	"testing"
	"time"
)

func TestFeedInterval(t *testing.T) {
	for _, tc := range []struct {
		rate int
		want time.Duration // 0 = refused
	}{
		{-5, 0},
		{0, 0},
		{1, time.Second},
		{100, 10 * time.Millisecond},
		{1e9, time.Nanosecond},
		{1e9 + 1, 0},
	} {
		got, err := feedInterval(tc.rate)
		if (err != nil) != (tc.want == 0) || got != tc.want {
			t.Errorf("feedInterval(%d) = %v, %v; want %v", tc.rate, got, err, tc.want)
		}
	}
}
