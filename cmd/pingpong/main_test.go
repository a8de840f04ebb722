package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestRawLAPIRejectsBandwidthAndInterrupts: raw-lapi has only the Section
// 5.1 polling latency ping-pong, so -bw and -interrupts are refused rather
// than silently measuring that instead.
func TestRawLAPIRejectsBandwidthAndInterrupts(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-provider", "raw-lapi", "-bw", "-size", "65536"}, "-bw"},
		{[]string{"-provider", "raw-lapi", "-interrupts", "-size", "64"}, "interrupt-mode"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if msg := stderr.String(); !strings.Contains(msg, "contradictory flags") || !strings.Contains(msg, tc.want) {
			t.Errorf("%v: stderr %q, want a contradictory-flags message naming %s", tc.args, msg, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q before refusing", tc.args, stdout.String())
		}
	}
}

// TestRawLAPILatencyMatchesGolden: an accepted run prints the Figure 10 raw
// LAPI value that results_all.txt records for 64 bytes.
func TestRawLAPILatencyMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile("../../results_all.txt")
	if err != nil {
		t.Fatal(err)
	}
	// The first "64" row of the file is Figure 10's; its first column is
	// RAW LAPI.
	var want string
	for _, line := range strings.Split(string(golden), "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "64" {
			want = f[1]
			break
		}
	}
	if want == "" {
		t.Fatal("results_all.txt has no 64-byte row")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-provider", "raw-lapi", "-size", "64"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("output %q, want a header and one row", stdout.String())
	}
	if f := strings.Fields(lines[1]); len(f) != 2 || f[0] != "64" || f[1] != want {
		t.Errorf("row %q, want 64 and %s", lines[1], want)
	}
}
