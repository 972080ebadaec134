package enclaves

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"sanctorum/internal/asm"
)

// TestServerImagesPinned pins the assembled bytes of the four serving
// programs. The ring and bulk servers are emitted from one skeleton;
// any instruction that moves changes a template measurement and the
// modeled cycles of every serving experiment, so a refactor of the
// emitters must leave these hashes exactly as they are.
func TestServerImagesPinned(t *testing.T) {
	l := DefaultLayout()
	for _, tc := range []struct {
		name string
		prog func(Layout) *asm.Program
		size int
		hash string
	}{
		{"RingEchoServer", RingEchoServer, 688, "87a53ef6c1f3de37b0811d97ad9115a09229cfdbc8271a9010779899eff85dae"},
		{"RingKVServer", RingKVServer, 704, "97f057a6a885580ca338b543df98d3e9257e811dd469e32f8b59f1917e04ccc8"},
		{"BulkEchoServer", BulkEchoServer, 1072, "a13647619bf3dfdbb152cfe1e7885e0b73a1c26a8d125a8dad0e302d6b64811e"},
		{"BulkKVServer", BulkKVServer, 1208, "83ff2676983f68d44e6b0c929b757f967d19e5159dbec6303994d706689a52bb"},
	} {
		bin, err := tc.prog(l).Assemble(l.CodeVA)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sum := sha256.Sum256(bin)
		if len(bin) != tc.size || hex.EncodeToString(sum[:]) != tc.hash {
			t.Errorf("%s: %d B sha256 %x, want %d B %s", tc.name, len(bin), sum, tc.size, tc.hash)
		}
	}
}
