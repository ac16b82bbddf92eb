package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name         string
		flows, rules int
		ok           bool
	}{
		{"defaults", 1000, 5, true},
		{"one flow, 32 rules", 1, 32, true},
		{"no flows", 0, 5, false},
		{"negative flows", -1, 5, false},
		{"no rules", 1000, 0, false},
		{"33 rules", 1000, 33, false},
	} {
		err := checkFlags(tc.flows, tc.rules)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
