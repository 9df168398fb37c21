package main

import (
	"testing"
	"time"
)

// TestParseRate: rates RunUDP cannot pace — not a number, not finite and
// positive, or a datagram interval that truncates to 0 ns or overflows
// time.Duration — are rejected, because the send loop would never
// advance simulated time.
func TestParseRate(t *testing.T) {
	for _, s := range []string{"0", "-5M", "1e-9", "NaN", "Inf", "20000G", "abc", ""} {
		if bps, err := parseRate(s); err == nil {
			t.Errorf("parseRate(%q) = %g, want an error", s, bps)
		}
	}
	for s, want := range map[string]float64{"880M": 880e6, "1.2G": 1.2e9, "5000000": 5e6, "1": 1} {
		if bps, err := parseRate(s); err != nil || bps != want {
			t.Errorf("parseRate(%q) = %g, %v; want %g", s, bps, err, want)
		}
	}
}

func TestParseDuration(t *testing.T) {
	for _, s := range []string{"0", "-1s", "abc"} {
		if d, err := parseDuration(s); err == nil {
			t.Errorf("parseDuration(%q) = %v, want an error", s, d)
		}
	}
	if d, err := parseDuration("2s"); err != nil || d != 2*time.Second {
		t.Errorf("parseDuration(\"2s\") = %v, %v; want 2s", d, err)
	}
}
