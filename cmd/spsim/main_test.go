package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

// TestFastReportsMatchGolden: each fast report, run on its own, prints
// exactly its block of the committed results_all.txt (which `make
// golden-check` compares whole).
func TestFastReportsMatchGolden(t *testing.T) {
	golden, err := os.ReadFile("../../results_all.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"table2", "ablate-eager", "ablate-ctxswitch", "generations"} {
		var out bytes.Buffer
		if code := run([]string{"-exp", id}, &out); code != 0 {
			t.Fatalf("spsim -exp %s exited %d", id, code)
		}
		// A block is a title line through the blank line that ends it.
		if !strings.HasSuffix(out.String(), "\n\n") || strings.Count(out.String(), "\n\n") != 1 {
			t.Fatalf("spsim -exp %s did not print one blank-line-terminated block:\n%s", id, &out)
		}
		at := bytes.Index(golden, out.Bytes())
		if at < 0 || (at > 0 && !bytes.HasSuffix(golden[:at], []byte("\n\n"))) {
			t.Errorf("spsim -exp %s is not a block of results_all.txt:\n%s", id, &out)
		}
	}
}

// TestBadArgumentsExit2: an unknown report and the flags retired with the
// sweep/pingpong duplicates are usage errors.
func TestBadArgumentsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "fig99"},
		{"-exp", "fig10", "-json"},
		{"-exp", "fig10", "-trace", "t.json"},
		{"-exp", "fig10", "-shards", "2"},
	} {
		if code := run(args, io.Discard); code != 2 {
			t.Errorf("spsim %v exited %d, want 2", args, code)
		}
	}
}
