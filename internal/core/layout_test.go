package core

import (
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/token"
)

// TestRecordLayout pins the sizes of the records every firing moves
// through the PE queues and the matching store: each byte is copied
// several times per instruction, and the kernel's throughput tracks them.
// On 32-bit platforms int is 4 bytes and int64 is 4-byte aligned.
func TestRecordLayout(t *testing.T) {
	for _, c := range []struct {
		name           string
		size           uintptr
		want64, want32 uintptr
	}{
		{"token.Value", unsafe.Sizeof(token.Value{}), 24, 20},
		{"token.Token", unsafe.Sizeof(token.Token{}), 48, 40},
		{"enabledInstr", unsafe.Sizeof(enabledInstr{}), 64, 52},
		{"partial", unsafe.Sizeof(partial{}), 56, 44},
	} {
		want := c.want64
		if strconv.IntSize == 32 {
			want = c.want32
		}
		if c.size != want {
			t.Errorf("unsafe.Sizeof(%s) = %d, want %d", c.name, c.size, want)
		}
	}
}
