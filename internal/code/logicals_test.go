package code

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// logicalDigests pins the logical bases of every registry code: SHA-256
// of LogicalX's rows, then LogicalZ's, as 0/1 text. The basis decides
// which observables every sampled shot flips, so a change to the
// elimination that picks it shows here before it moves an error rate.
var logicalDigests = map[string]string{
	"BB [[72,12,6]]":   "6dabff3f58734a0e95f2ed16c6bd6b33d1737ba1ae895b005df87bf4d08e261f",
	"BB [[90,8,10]]":   "af08a5bc2f52850d870c722f51a37fbebd79467ff54ba03d09679b029b0635c7",
	"BB [[108,8,10]]":  "ddb8529cbd4718abedf65af3b97e894dac6ecebe89bf9dc2aab5f7b132a3529b",
	"BB [[144,12,12]]": "fed92ee21118a704a5e819a7c7faf08e0b4b2aa1f71e01431494f0fd3e3c68f3",
	"BB [[288,12,18]]": "aec9ac121b4e3c2ffa111f07f7d16ff34b516835a935a405ead393cfaeb0f5a8",
	"BB [[784,24,24]]": "073d4cf0becf31dbbbb9e7e99f85ffc72a8ed65d3101221c1618d9c1d99fe1e2",
	"HP [[162,2,4]]":   "bf969faa2051f240bee3e5df25ec70ff1830177117888a40d52486091b016a05",
	"HP [[338,2,4]]":   "36d7bfe272b12e94c83eabc6d5cecd1b5dca356a011e66c8c399f5170576e93c",
	"HP [[288,12,6]]":  "72589e39273d251df3f69a5eaf000381c3e8acb0e68eb5ab0fdf044afaae1cb6",
	"HP [[744,20,6]]":  "0d6e204b5cf4cb1a282ff32baf59d873bac31b58ae45947b39131c90690f7905",
	"HP [[882,48,8]]":  "f364f79fcb0efd09f54ee822253d3bb5cbb703eb179a965149e08b5cfecc82b7",
	"HP [[1488,30,7]]": "fcf94eaf0d34df741c329a4e2ff989e1bb810c3f2f7a35348826cf99d4e01e77",
}

func logicalDigest(c *CSS) string {
	sum := sha256.Sum256([]byte(c.LogicalX().String() + "\n\n" + c.LogicalZ().String()))
	return hex.EncodeToString(sum[:])
}

func TestLogicalBasesPinned(t *testing.T) {
	var codes []*CSS
	for i := range BBRegistry {
		c, err := NewBBByIndex(i)
		if err != nil {
			t.Fatal(err)
		}
		codes = append(codes, c)
	}
	for i := range HPRegistry {
		c, err := NewHPByIndex(i)
		if err != nil {
			t.Fatal(err)
		}
		codes = append(codes, c)
	}
	if len(codes) != len(logicalDigests) {
		t.Fatalf("%d registry codes, %d pinned digests", len(codes), len(logicalDigests))
	}
	for _, c := range codes {
		if got := logicalDigest(c); got != logicalDigests[c.Name] {
			t.Errorf("%q: logical bases digest %s, want %s", c.Name, got, logicalDigests[c.Name])
		}
	}
}
