package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestDecoupleWritesPinnedArtifact runs `vegapunk decouple -out` and
// requires the file to be byte for byte the artifact whose digest
// internal/decouple's TestDecoupleGoldenDigests pins for the same matrix
// (rows BB72-circuit-hints12-6 and BB144-circuit-hints12-6).
func TestDecoupleWritesPinnedArtifact(t *testing.T) {
	for _, tc := range []struct{ code, sha256 string }{
		{"BB [[72,12,6]]", "5b8c4a7a3dd70a209292e5b08950da4e4fbeb7025b596e0ae2f6d9126d6930b9"},
		{"BB [[144,12,12]]", "60971c418b31c26adb0b1f8167e97e99d41aea9aae99e9fed7b83020fde211a4"},
	} {
		out := filepath.Join(t.TempDir(), "art.json")
		if rc := cmdDecouple([]string{"-code", tc.code, "-out", out}); rc != 0 {
			t.Fatalf("%s: exit %d", tc.code, rc)
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != tc.sha256 {
			t.Errorf("%s: artifact sha256 %s, want %s", tc.code, got, tc.sha256)
		}
	}
}
