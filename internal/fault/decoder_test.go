package fault

import (
	"math/rand/v2"
	"testing"
	"time"

	"vegapunk/internal/code"
	"vegapunk/internal/core"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

func testModel(t *testing.T) *dem.Model {
	t.Helper()
	c, err := code.NewBBByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	return dem.CodeCapacity(c, 0.01)
}

func testFactory(model *dem.Model) core.Factory {
	return func() core.Decoder { return core.NewBP(model, 30) }
}

func TestPassthroughEquivalence(t *testing.T) {
	model := testModel(t)
	plain := testFactory(model)()
	wrapped, counters := Wrap(testFactory(model), Plan{Seed: 1}) // all probabilities zero
	chaos := wrapped()

	rng := rand.New(rand.NewPCG(2, 2))
	for i := 0; i < 50; i++ {
		s := model.Syndrome(model.Sample(rng))
		want, _ := plain.Decode(s)
		got, _ := chaos.Decode(s)
		if !got.Equal(want) {
			t.Fatalf("decode %d: wrapper with empty plan changed the result", i)
		}
	}
	if counters.Injected() != 0 {
		t.Errorf("empty plan injected %d faults", counters.Injected())
	}
	if counters.Ops.Load() != 50 {
		t.Errorf("decodes counter = %d, want 50", counters.Ops.Load())
	}
	if got := chaos.(*decoder).Name(); got != "BP(30)+chaos" {
		t.Errorf("name = %q", got)
	}
}

func TestDeterministicSchedule(t *testing.T) {
	model := testModel(t)
	plan := Plan{Seed: 42, Mix: map[Kind]float64{Slow: 0.3, Corrupt: 0.2}, SlowFor: time.Microsecond}
	run := func() []uint64 {
		f, c := Wrap(testFactory(model), plan)
		d := f()
		s := gf2.NewVec(model.NumDet)
		for i := 0; i < 200; i++ {
			d.Decode(s)
		}
		return []uint64{c.Of(Slow), c.Of(Corrupt)}
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule not deterministic: run1=%v run2=%v", a, b)
		}
	}
	if a[0] == 0 || a[1] == 0 {
		t.Errorf("200 decodes at (0.3,0.2) injected none of some kind: %v", a)
	}
}

func TestInstancesDrawIndependentStreams(t *testing.T) {
	model := testModel(t)
	f, _ := Wrap(testFactory(model), Plan{Seed: 7, Mix: map[Kind]float64{Slow: 0.5}, SlowFor: time.Microsecond})
	d1, d2 := f().(*decoder), f().(*decoder)
	same := true
	for i := 0; i < 64; i++ {
		if d1.next() != d2.next() {
			same = false
		}
	}
	if same {
		t.Error("two instances drew identical fault streams")
	}
}

func TestScriptOverridesProbabilities(t *testing.T) {
	model := testModel(t)
	plan := Plan{
		Seed:    1,
		Mix:     map[Kind]float64{Crash: 1}, // ignored: script wins
		Script:  []Kind{Pass, Corrupt, Pass},
		SlowFor: time.Microsecond,
	}
	f, c := Wrap(testFactory(model), plan)
	d := f()
	s := gf2.NewVec(model.NumDet)
	want := model.NumMech()
	for i := 0; i < 6; i++ {
		est, _ := d.Decode(s)
		wrongTurn := i == 1
		if wrongTurn && est.Len() == want {
			t.Errorf("decode %d: script said wronglen but length is correct", i)
		}
		if !wrongTurn && est.Len() != want {
			t.Errorf("decode %d: unexpected wrong length %d", i, est.Len())
		}
	}
	if c.Of(Crash) != 0 {
		t.Error("script mode still drew probabilistic panic")
	}
	if c.Of(Corrupt) != 1 {
		t.Errorf("wronglen count = %d, want 1", c.Of(Corrupt))
	}
}

func TestScriptSharedAcrossInstances(t *testing.T) {
	model := testModel(t)
	f, c := Wrap(testFactory(model), Plan{Seed: 1, Script: []Kind{Corrupt}})
	d1, d2 := f(), f()
	s := gf2.NewVec(model.NumDet)
	want := model.NumMech()
	if est, _ := d1.Decode(s); est.Len() == want {
		t.Error("first scheduled decode should be wrong-length")
	}
	// The schedule is consumed: a second (replacement) instance must
	// decode cleanly, not replay the fault.
	if est, _ := d2.Decode(s); est.Len() != want {
		t.Errorf("replacement instance re-injected the fault (len %d)", est.Len())
	}
	if c.Of(Corrupt) != 1 {
		t.Errorf("wronglen count = %d, want 1", c.Of(Corrupt))
	}
}

func TestInjectedPanic(t *testing.T) {
	model := testModel(t)
	f, c := Wrap(testFactory(model), Plan{Seed: 1, Script: []Kind{Crash}})
	d := f()
	func() {
		defer func() {
			if r := recover(); r != PanicMessage {
				t.Errorf("recovered %v, want %q", r, PanicMessage)
			}
		}()
		d.Decode(gf2.NewVec(model.NumDet))
	}()
	if c.Of(Crash) != 1 {
		t.Errorf("panic count = %d", c.Of(Crash))
	}
}

func TestStallBlocksUntilRelease(t *testing.T) {
	model := testModel(t)
	release := make(chan struct{})
	f, c := Wrap(testFactory(model), Plan{Seed: 1, Script: []Kind{Stall}, StallRelease: release})
	d := f()
	done := make(chan struct{})
	go func() {
		d.Decode(gf2.NewVec(model.NumDet))
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("stalled decode returned before release")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("stalled decode never returned after release")
	}
	if c.Of(Stall) != 1 {
		t.Errorf("stall count = %d", c.Of(Stall))
	}
}

func TestSlowDelaysDecode(t *testing.T) {
	model := testModel(t)
	f, _ := Wrap(testFactory(model), Plan{Seed: 1, Script: []Kind{Slow}, SlowFor: 10 * time.Millisecond})
	d := f()
	start := time.Now()
	d.Decode(gf2.NewVec(model.NumDet))
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Errorf("slow decode took %v, want >= 10ms", elapsed)
	}
}
