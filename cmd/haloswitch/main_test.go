package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		engine                string
		flows, rules, packets int
		ok                    bool
	}{
		{"defaults", "software", 100_000, 10, 20_000, true},
		{"halo engine", "halo", 100_000, 10, 20_000, true},
		{"one flow, 32 rules, one packet", "software", 1, 32, 1, true},
		{"hybrid engine", "hybrid", 100_000, 10, 20_000, false},
		{"unknown engine", "bogus", 100_000, 10, 20_000, false},
		{"no flows", "software", 0, 10, 20_000, false},
		{"no rules", "software", 100_000, 0, 20_000, false},
		{"33 rules", "software", 100_000, 33, 20_000, false},
		{"no packets", "software", 100_000, 10, 0, false},
		{"negative packets", "software", 100_000, 10, -5, false},
	} {
		err := checkFlags(tc.engine, tc.flows, tc.rules, tc.packets)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
