package main

import (
	"strings"
	"testing"
)

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name  string
		proto string
		clips int
		want  string // substring of the error, "" = legal
	}{
		{"udp", "udp", 3, ""},
		{"tcp", "tcp", 1, ""},
		{"upper case", "TCP", 3, `-proto "TCP": want udp or tcp`},
		{"misspelt", "TCPX", 3, `-proto "TCPX"`},
		{"empty", "", 3, `-proto ""`},
		{"no clips", "udp", 0, "-clips 0: want at least 1"},
		{"negative clips", "tcp", -3, "-clips -3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msg := flagError(tc.proto, tc.clips)
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
