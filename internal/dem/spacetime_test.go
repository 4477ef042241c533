package dem

import (
	"testing"

	"vegapunk/internal/code"
)

func TestSpaceTimeShape(t *testing.T) {
	c := steane(t)
	per := Phenomenological(c, 0.01, 0.01)
	st := SpaceTime(per, 4)
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	if st.NumDet != 4*per.NumDet || st.NumMech() != 4*per.NumMech() {
		t.Errorf("space-time shape [%d,%d]", st.NumDet, st.NumMech())
	}
	if st.NumObs != per.NumObs {
		t.Error("observables should not multiply with rounds")
	}
}

func TestSpaceTimeMeasurementStraddle(t *testing.T) {
	c := steane(t)
	per := Phenomenological(c, 0.01, 0.02)
	st := SpaceTime(per, 3)
	n, m := 7, int32(3)
	nm := per.NumMech()
	// Data column of round 1: support confined to round-1 detectors.
	dataCol := st.Mech.ColSpan(nm + 0)
	for _, d := range dataCol {
		if d < m || d >= 2*m {
			t.Errorf("round-1 data mechanism touches detector %d outside its round", d)
		}
	}
	// Measurement column of round 0: flips detector in rounds 0 and 1.
	measCol := st.Mech.ColSpan(n)
	if len(measCol) != 2 || measCol[0] != 0 || measCol[1] != m {
		t.Errorf("measurement straddle wrong: %v", measCol)
	}
	// Final round measurement does not straddle past the end.
	lastMeas := st.Mech.ColSpan(2*nm + n)
	if len(lastMeas) != 1 || lastMeas[0] != 2*m {
		t.Errorf("final-round measurement support: %v", lastMeas)
	}
	// Observables carried per round copy.
	if len(st.Obs.ColSpan(nm+0)) != len(per.Obs.ColSpan(0)) {
		t.Error("observable support lost in unrolling")
	}
}

func TestSpaceTimeDecodableByVegapunkStack(t *testing.T) {
	// The space-time matrix still contains identity-like columns
	// (final-round measurements) and block structure, so the decoupler
	// and BB/HP machinery must handle it. Just verify the matrix is
	// consistent and priors survived.
	hp, err := code.NewHPByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	per := Phenomenological(hp, 0.001, 0.002)
	st := SpaceTime(per, 2)
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	if st.Prior[per.NumMech()] != per.Prior[0] {
		t.Error("priors not replicated")
	}
	if st.NumDet != 162 || st.NumMech() != 486 {
		t.Errorf("unexpected space-time shape [%d,%d]", st.NumDet, st.NumMech())
	}
}

func TestSpaceTimeSingleRound(t *testing.T) {
	c := steane(t)
	per := CodeCapacity(c, 0.01)
	st := SpaceTime(per, 1)
	if !st.CheckMatrix().Equal(per.CheckMatrix()) {
		t.Error("1-round space-time should equal the per-round model")
	}
	st0 := SpaceTime(per, 0)
	if st0.NumMech() != per.NumMech() {
		t.Error("rounds<1 should clamp to 1")
	}
}
