package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		flows, rules, packets int
		ok                    bool
	}{
		{"defaults", 100_000, 10, 20_000, true},
		{"one flow, 32 rules, one packet", 1, 32, 1, true},
		{"no flows", 0, 10, 20_000, false},
		{"no rules", 100_000, 0, 20_000, false},
		{"33 rules", 100_000, 33, 20_000, false},
		{"no packets", 100_000, 10, 0, false},
		{"negative packets", 100_000, 10, -5, false},
	} {
		err := checkFlags(tc.flows, tc.rules, tc.packets)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
