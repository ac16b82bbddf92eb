package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name         string
		flows, rules int
		out          string
		count        int
		ok           bool
	}{
		{"defaults", 1000, 5, "", 100000, true},
		{"one flow, 32 rules", 1, 32, "", 0, true},
		{"-count ignored without -out", 1000, 5, "", 0, true},
		{"no flows", 0, 5, "", 100000, false},
		{"negative flows", -1, 5, "", 100000, false},
		{"no rules", 1000, 0, "", 100000, false},
		{"33 rules", 1000, 33, "", 100000, false},
		{"-out with no packets", 1000, 5, "t.bin", 0, false},
	} {
		err := checkFlags(tc.flows, tc.rules, tc.out, tc.count)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
