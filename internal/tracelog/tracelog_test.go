package tracelog

import (
	"testing"
	"unsafe"
)

// TestEventSize pins the record size DefaultCap's "~10 MiB" assumes: a
// ring of DefaultCap events is allocated and zeroed for every traced cell.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 40 {
		t.Fatalf("unsafe.Sizeof(Event{}) = %d, want 40", got)
	}
}
