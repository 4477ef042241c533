package core

import (
	"math/rand/v2"
	"testing"

	"vegapunk/internal/code"
	"vegapunk/internal/decouple"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
	"vegapunk/internal/hier"
)

func bb72Model(t *testing.T) *dem.Model {
	t.Helper()
	c, err := code.NewBBByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	return dem.CircuitLevel(c, 0.003)
}

func TestAllDecodersSatisfyInterface(t *testing.T) {
	model := bb72Model(t)
	veg, err := BuildVegapunk(model, decouple.Options{Seed: 1}, hier.Config{})
	if err != nil {
		t.Fatal(err)
	}
	decoders := []Decoder{
		veg,
		NewBP(model, 72),
		NewBPOSD(model, 72, 7),
		NewBPLSD(model),
		NewBPGD(model),
		NewGreedyNoDecouple(model, 0),
	}
	rng := rand.New(rand.NewPCG(1, 1))
	e := model.Sample(rng)
	s := model.Syndrome(e)
	for _, d := range decoders {
		if d.Name() == "" {
			t.Error("empty decoder name")
		}
		est, _ := d.Decode(s)
		if est.Len() != model.NumMech() {
			t.Errorf("%s: estimate length %d != %d", d.Name(), est.Len(), model.NumMech())
		}
	}
}

func TestDecoderNames(t *testing.T) {
	model := bb72Model(t)
	if got := NewBP(model, 100).Name(); got != "BP(100)" {
		t.Errorf("BP name %q", got)
	}
	if got := NewBP(model, 0).Name(); got != "BP" {
		t.Errorf("BP default name %q", got)
	}
	if got := NewBPOSD(model, 50, 0).Name(); got != "BP+OSD-CS(7)" {
		t.Errorf("BPOSD default name %q", got)
	}
	if got := NewBPLSD(model).Name(); got != "BP+LSD" {
		t.Errorf("LSD name %q", got)
	}
	if got := NewBPGD(model).Name(); got != "BPGD" {
		t.Errorf("BPGD name %q", got)
	}
}

func TestVegapunkStatsPopulated(t *testing.T) {
	model := bb72Model(t)
	veg, err := BuildVegapunk(model, decouple.Options{Seed: 2}, hier.Config{MaxIters: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(2, 2))
	sawOuter := false
	for i := 0; i < 10; i++ {
		e := model.Sample(rng)
		s := model.Syndrome(e)
		_, stats := veg.Decode(s)
		if stats.Hier.OuterIters > 0 {
			sawOuter = true
		}
		if stats.Hier.OuterIters > 3 {
			t.Error("outer iterations exceed configured M")
		}
	}
	if !sawOuter {
		t.Error("trace never populated")
	}
	if veg.Decoupling() == nil {
		t.Error("Decoupling accessor nil")
	}
}

func TestVegapunkDecodeSatisfiesSyndrome(t *testing.T) {
	model := bb72Model(t)
	veg, err := BuildVegapunk(model, decouple.Options{Seed: 3}, hier.Config{})
	if err != nil {
		t.Fatal(err)
	}
	H := model.CheckMatrix()
	rng := rand.New(rand.NewPCG(3, 3))
	for i := 0; i < 25; i++ {
		e := model.Sample(rng)
		s := model.Syndrome(e)
		est, _ := veg.Decode(s)
		if !H.MulVec(est).Equal(s) {
			t.Fatal("Vegapunk violated the syndrome through the core API")
		}
	}
}

func TestBPStatsIterations(t *testing.T) {
	model := bb72Model(t)
	d := NewBP(model, 20)
	_, stats := d.Decode(gf2.NewVec(model.NumDet))
	if stats.BPIters != 1 || !stats.BPConverged {
		t.Errorf("zero syndrome: iters=%d converged=%v", stats.BPIters, stats.BPConverged)
	}
}

func TestAllDecodersDegradable(t *testing.T) {
	model := bb72Model(t)
	veg, err := BuildVegapunk(model, decouple.Options{Seed: 1}, hier.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// limit reads the underlying cap that SetTier scales; ladder is the
	// cap each tier must apply, given the constructed one.
	limit := func(d Decoder) int {
		if v, ok := d.(*Vegapunk); ok {
			return v.online.MaxIters()
		}
		return baselineOf(t, d).limit()
	}
	ladder := func(d Decoder, full int, tier Tier) int {
		if _, ok := d.(*Vegapunk); ok {
			return [...]int{full, max(full-1, 1), 1}[tier]
		}
		return tierIters(full, tier)
	}
	decoders := []Decoder{
		veg,
		NewBP(model, 72),
		NewMinSumBP(model, 72),
		NewBPOSD(model, 72, 7),
		NewBPLSD(model),
		NewBPGD(model),
		NewBPGDWith(model, 8, 20),
	}
	rng := rand.New(rand.NewPCG(7, 7))
	e := model.Sample(rng)
	s := model.Syndrome(e)
	for _, d := range decoders {
		dd, ok := d.(DegradableDecoder)
		if !ok {
			t.Fatalf("%s does not implement DegradableDecoder", d.Name())
		}
		constructed := limit(d)
		for tier := TierFull; tier <= MaxTier; tier++ {
			if got := dd.SetTier(tier); got != tier {
				t.Errorf("%s: SetTier(%v) = %v", d.Name(), tier, got)
			}
			if got, want := limit(d), ladder(d, constructed, tier); got != want {
				t.Errorf("%s@%v: cap %d, want %d of constructed %d", d.Name(), tier, got, want, constructed)
			}
			est, _ := dd.Decode(s)
			if est.Len() != model.NumMech() {
				t.Errorf("%s@%v: estimate length %d != %d", d.Name(), tier, est.Len(), model.NumMech())
			}
		}
		// Out-of-range requests clamp to the cheapest tier.
		if got := dd.SetTier(MaxTier + 1); got != MaxTier {
			t.Errorf("%s: SetTier(MaxTier+1) = %v, want %v", d.Name(), got, MaxTier)
		}
		// Stepping back to TierFull restores the constructed config.
		if got := dd.SetTier(TierFull); got != TierFull {
			t.Errorf("%s: SetTier(TierFull) = %v", d.Name(), got)
		}
		if got := limit(d); got != constructed {
			t.Errorf("%s: cap after TierMinimal then TierFull = %d, constructed %d", d.Name(), got, constructed)
		}
	}
}

// TestVegapunkTierChangesKeepAnswers steps one decoder through the
// degradation ladder between decodes: whatever the online decoder keeps
// across calls (its block-objective table) must not depend on the tier,
// so each answer equals that of a decoder built at that tier's cap.
func TestVegapunkTierChangesKeepAnswers(t *testing.T) {
	model := bb72Model(t)
	veg, err := BuildVegapunk(model, decouple.Options{Seed: 1}, hier.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fresh := map[Tier]*Vegapunk{}
	for tier := TierFull; tier <= MaxTier; tier++ {
		fresh[tier] = NewVegapunkFrom(model, veg.Decoupling(), hier.Config{})
		fresh[tier].SetTier(tier)
	}
	rng := rand.New(rand.NewPCG(18, 18))
	for shot := 0; shot < 300; shot++ {
		tier := Tier(shot * 5 % int(MaxTier+1))
		veg.SetTier(tier)
		s := model.Syndrome(model.Sample(rng))
		got, gotStats := veg.Decode(s)
		want, wantStats := fresh[tier].Decode(s)
		if !got.Equal(want) || gotStats.Hier != wantStats.Hier {
			t.Fatalf("shot %d at %v: stepped decoder %+v differs from a fresh one %+v", shot, tier, gotStats.Hier, wantStats.Hier)
		}
	}
}

// baselineOf unwraps the BP-family adapter behind d.
func baselineOf(t *testing.T, d Decoder) *baseline {
	t.Helper()
	b, ok := d.(*baseline)
	if !ok {
		t.Fatalf("%s: %T is not a BP-family adapter", d.Name(), d)
	}
	return b
}

func TestTierString(t *testing.T) {
	cases := map[Tier]string{
		TierFull: "full", TierDegraded: "degraded", TierMinimal: "minimal", MaxTier + 1: "invalid",
	}
	for tier, want := range cases {
		if got := tier.String(); got != want {
			t.Errorf("Tier(%d).String() = %q, want %q", tier, got, want)
		}
	}
}

func TestTierItersScaling(t *testing.T) {
	if got := tierIters(30, TierFull); got != 30 {
		t.Errorf("full: %d", got)
	}
	if got := tierIters(30, TierDegraded); got != 15 {
		t.Errorf("degraded: %d", got)
	}
	if got := tierIters(30, TierMinimal); got != 7 {
		t.Errorf("minimal: %d", got)
	}
	if got := tierIters(2, TierMinimal); got != 1 {
		t.Errorf("minimal floor: %d", got)
	}
}

// TestBPTierChangesKeepAnswers steps one Relay-BP decoder through the
// degradation ladder between decodes, over a sample in which one
// syndrome in ten needs the memory legs: full and degraded keep the legs
// under a scaled per-leg cap, minimal is plain min-sum at a quarter of
// the cap, and stepping back restores the constructed decoder.
func TestBPTierChangesKeepAnswers(t *testing.T) {
	model := bb72Model(t)
	d := NewBP(model, 30).(DegradableDecoder)
	fresh := map[Tier]Decoder{
		TierFull:     NewBP(model, 30),
		TierDegraded: NewBP(model, 15),
		TierMinimal:  NewMinSumBP(model, 7),
	}
	plain := NewMinSumBP(model, 30)
	rng := rand.New(rand.NewPCG(13, 13))
	relayed := 0
	for shot := 0; shot < 300; shot++ {
		s := model.Syndrome(model.Sample(rng))
		_, plainStats := plain.Decode(s)
		for _, tier := range []Tier{TierMinimal, TierDegraded, TierFull} {
			d.SetTier(tier)
			got, gotStats := d.Decode(s)
			want, wantStats := fresh[tier].Decode(s)
			if !got.Equal(want) || gotStats != wantStats {
				t.Fatalf("shot %d tier %v: stats %+v, a decoder built at that tier gives %+v", shot, tier, gotStats, wantStats)
			}
			if tier == TierFull && gotStats.BPConverged && !plainStats.BPConverged {
				relayed++
			}
		}
	}
	if relayed == 0 {
		t.Error("the memory legs solved nothing plain BP(30) does not")
	}
}

func TestBPTierRestoresFullIters(t *testing.T) {
	model := bb72Model(t)
	d := NewBP(model, 40).(DegradableDecoder)
	s := gf2.NewVec(model.NumDet)
	d.SetTier(TierMinimal)
	if _, stats := d.Decode(s); !stats.BPConverged {
		t.Fatal("zero syndrome should converge at any tier")
	}
	d.SetTier(TierFull)
	if _, stats := d.Decode(s); stats.BPIters != 1 || !stats.BPConverged {
		t.Errorf("after restore: iters=%d converged=%v", stats.BPIters, stats.BPConverged)
	}
}
