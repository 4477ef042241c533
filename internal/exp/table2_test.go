package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"vegapunk/internal/decouple"
)

// TestTable2Decouplings pins the offline artifact of every Table 2 code as
// the workspace builds it (exp's hints, seed 1234): K, n_D and the SHA-256
// of the serialized decoupling, in Benchmarks() order. The digests were
// recorded while the decoupling search still ran a general-T subspace
// search beside its row partitions; that search never won here, and these
// rows keep every artifact the experiments use byte-identical. Three equal
// internal/decouple goldens: BB72 seed 3, BB144 hints {12, 6}, HP162 hint 9.
func TestTable2Decouplings(t *testing.T) {
	want := []struct {
		name   string
		K, ND  int
		sha256 string
	}{
		{"BB [[72,12,6]]", 3, 72, "5b8c4a7a3dd70a209292e5b08950da4e4fbeb7025b596e0ae2f6d9126d6930b9"},
		{"BB [[90,8,10]]", 3, 90, "76f0c0d9745a4b83ea411a1f4191f88d5545630447b9667e5fb4187150952934"},
		{"BB [[108,8,10]]", 3, 108, "4606ef6a42294b9a6e93a5ac443f41d0c667ae6e74d72e7a74f16228c9d8a698"},
		{"BB [[144,12,12]]", 4, 90, "60971c418b31c26adb0b1f8167e97e99d41aea9aae99e9fed7b83020fde211a4"},
		{"BB [[288,12,18]]", 4, 188, "7e54f877b8d7e0e28918026ba290f4ec4ceb7171b0e2dc9972fcb27d946e956f"},
		{"BB [[784,24,24]]", 7, 336, "0a4beb5d5f0484e8e17b1ca1deb8520736c1e72d6cb6e5a8b61d4c3323942640"},
		{"HP [[162,2,4]]", 9, 18, "8a297ecb038c369bfdf6ca6c20edcc9e67e97947cf9074eb1183420ffc3b6538"},
		{"HP [[338,2,4]]", 13, 26, "7e99a224f4beffe50c930b8b255f804129591a23861dbb70ac1773950788927b"},
		{"HP [[288,12,6]]", 12, 24, "55fb9b7e9cd8ad31ba18fe3d936f8c8a9ca9f4abc192ef050b18df5e8e183048"},
		{"HP [[744,20,6]]", 12, 62, "93c42438b7fddee2b475164649d9e99b2d909b6ec281ffd3819c9a888bc4e4d0"},
		{"HP [[882,48,8]]", 21, 42, "5477f0e655a9b41302c4e344717e0f0eaaa2198689811d7016488ec6c7d54d01"},
		{"HP [[1488,30,7]]", 24, 62, "800d8fb5caae4a8aeed6f5ce3ac4669db5ce67d6efc2774c95066db7ab9cfb97"},
	}
	bs := Benchmarks()
	if len(bs) != len(want) {
		t.Fatalf("%d benchmarks, %d pinned artifacts", len(bs), len(want))
	}
	ws := NewWorkspace()
	for i, b := range bs {
		w := want[i]
		if b.Name != w.name {
			t.Fatalf("benchmark %d is %s, pinned row is %s", i, b.Name, w.name)
		}
		d, err := ws.Decoupling(b)
		if err != nil {
			t.Fatal(err)
		}
		checkArtifact(t, b.Name, d, w.K, w.ND, w.sha256)
	}
}

// TestFig12Decouplings pins the artifacts Fig12 decouples the same way:
// the deep space-time batches of BB72, BB90 and BB108 at Quick depth (18
// rounds) and BB72's at Normal and Full depth (36 rounds), at
// cmd/experiments' default seed 2025. The digests were recorded with the
// subspace search still in place, like Table 2's. The 48- and 60-round
// batches of BB90 and BB108 (seconds each) are checked in EXPERIMENTS.md
// instead.
func TestFig12Decouplings(t *testing.T) {
	want := []struct {
		name    string
		quality Quality
		K, ND   int
		sha256  string
	}{
		{"BB [[72,12,6]]", Quick, 18, 288, "9e7e7f862301c41e409991bd4096faafba6b1cdd630ebc7efedbd7ae829eaca1"},
		{"BB [[90,8,10]]", Quick, 18, 360, "aa157535cd02dce3b1f4f67ba88e2c5c7eabbb236582050a571d11fd4828f246"},
		{"BB [[108,8,10]]", Quick, 18, 432, "d1fb7212dd0c721e1c17d2221b96564a76e38cab025f9b5f67ef1954f15a51ec"},
		{"BB [[72,12,6]]", Normal, 36, 288, "1a8dded6d48db9cbfed8d39c0e89b96991059c76797ce49d5577355af3e0780f"},
	}
	ws := NewWorkspace()
	for _, w := range want {
		b, ok := BenchmarkByName(w.name)
		if !ok {
			t.Fatalf("no benchmark %s", w.name)
		}
		_, d, err := fig12Batch(Config{Quality: w.quality, Seed: 2025}, ws, b, 3e-3)
		if err != nil {
			t.Fatal(err)
		}
		checkArtifact(t, b.Name, d, w.K, w.ND, w.sha256)
	}
}

// checkArtifact compares d's K, n_D and serialized SHA-256 with the
// pinned values.
func checkArtifact(t *testing.T, name string, d *decouple.Decoupling, K, ND int, sha string) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); d.K != K || d.ND != ND || got != sha {
		t.Errorf("%s: K=%d n_D=%d sha256 %s, want K=%d n_D=%d sha256 %s", name, d.K, d.ND, got, K, ND, sha)
	}
}
