package main

import (
	"math"
	"strings"
	"testing"
)

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name           string
		clips          int
		unavailability float64
		want           string // substring of the error, "" = legal
	}{
		{"defaults", 8, 0.1, ""},
		{"one clip, always available", 1, 0, ""},
		{"every clip unavailable", 8, 1, ""},
		{"negative clips", -3, 0.1, "-clips -3: want at least 1"},
		{"no clips", 0, 0.1, "-clips 0: want at least 1"},
		{"unavailability above one", 8, 2, "-unavailability 2: want a probability in [0, 1]"},
		{"negative unavailability", 8, -0.1, "-unavailability -0.1"},
		{"NaN unavailability", 8, math.NaN(), "-unavailability NaN"},
		{"infinite unavailability", 8, math.Inf(1), "-unavailability +Inf"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msg := flagError(tc.clips, tc.unavailability)
			if tc.want == "" {
				if msg != "" {
					t.Fatalf("legal flags rejected: %s", msg)
				}
				return
			}
			if !strings.Contains(msg, tc.want) || strings.Contains(msg, "\n") {
				t.Fatalf("want one line containing %q, got %q", tc.want, msg)
			}
		})
	}
}
