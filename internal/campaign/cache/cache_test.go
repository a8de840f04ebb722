package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func key(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"schema":"sweep/v3","points":[1,2,3]}`)
	k := key("a")
	if _, ok := s.Get(k); ok {
		t.Fatal("empty store reported a hit")
	}
	if err := s.Put(k, body); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok {
		t.Fatal("stored entry missed")
	}
	if string(got) != string(body) {
		t.Fatalf("round trip changed bytes: %q != %q", got, body)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Corrupt != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReopenSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := key("persist")
	if err := s1.Put(k, []byte("result body")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(k)
	if !ok || string(got) != "result body" {
		t.Fatalf("entry did not survive reopen: %q, %v", got, ok)
	}
}

// A flipped byte, a truncated body, or a mangled header must all read as
// a miss, be counted corrupt, and be quarantined so a fresh Put works.
func TestCorruptEntriesQuarantined(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(path string, t *testing.T)
	}{
		{"flipped body byte", func(path string, t *testing.T) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)-1] ^= 0x40
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated body", func(path string, t *testing.T) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b[:len(b)-3], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"mangled header", func(path string, t *testing.T) {
			if err := os.WriteFile(path, []byte("not-a-cache-entry\nbody"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"empty file", func(path string, t *testing.T) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			k := key(tc.name)
			if err := s.Put(k, []byte("precious result")); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(s.Dir(), k+".entry")
			tc.corrupt(path, t)
			if got, ok := s.Get(k); ok {
				t.Fatalf("corrupt entry served: %q", got)
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Fatalf("corrupt counter = %d, want 1", st.Corrupt)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("corrupt entry not quarantined")
			}
			// The slot is writable again.
			if err := s.Put(k, []byte("fresh result")); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(k); !ok || string(got) != "fresh result" {
				t.Fatalf("re-put after quarantine failed: %q, %v", got, ok)
			}
		})
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{
		"", "short", strings.Repeat("g", 64), "../../../../etc/passwd",
		strings.Repeat("A", 64), // uppercase hex is not canonical
	} {
		if err := s.Put(k, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", k)
		}
		if _, ok := s.Get(k); ok {
			t.Errorf("Get(%q) hit on an invalid key", k)
		}
	}
}

func TestContainsDoesNotSkewRatio(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := key("probe")
	if s.Contains(k) {
		t.Fatal("empty store contains entry")
	}
	if err := s.Put(k, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if !s.Contains(k) {
		t.Fatal("stored entry not contained")
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Contains skewed the hit/miss counters: %+v", st)
	}
}
