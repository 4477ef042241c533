package dem

import (
	"math"
	"math/rand/v2"
	"testing"

	"vegapunk/internal/code"
	"vegapunk/internal/gf2"
)

func steane(t *testing.T) *code.CSS {
	t.Helper()
	h := gf2.FromRows([][]int{
		{1, 0, 1, 0, 1, 0, 1},
		{0, 1, 1, 0, 0, 1, 1},
		{0, 0, 0, 1, 1, 1, 1},
	})
	c, err := code.NewCSS("Steane", h.Clone(), h.Clone(), 3)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCodeCapacityModel(t *testing.T) {
	c := steane(t)
	m := CodeCapacity(c, 0.01)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumMech() != 7 || m.NumDet != 3 || m.NumObs != 1 {
		t.Errorf("shape mech=%d det=%d obs=%d", m.NumMech(), m.NumDet, m.NumObs)
	}
	// Check matrix equals HZ.
	if !m.CheckMatrix().Equal(c.HZ) {
		t.Error("code-capacity check matrix != HZ")
	}
	// LLR of p=0.01 is log(99).
	llr := m.LLRs()
	if math.Abs(llr[0]-math.Log(99)) > 1e-12 {
		t.Errorf("LLR = %v", llr[0])
	}
}

func TestPhenomenologicalShape(t *testing.T) {
	c := steane(t)
	m := Phenomenological(c, 0.01, 0.02)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// [H | I]: n + m columns.
	if m.NumMech() != 7+3 {
		t.Errorf("mech count %d, want 10", m.NumMech())
	}
	d := m.CheckMatrix()
	if !d.Submatrix(0, 3, 0, 7).Equal(c.HZ) {
		t.Error("left part is not H")
	}
	if !d.Submatrix(0, 3, 7, 10).Equal(gf2.Eye(3)) {
		t.Error("right part is not I")
	}
	// Measurement mechanisms carry no observables.
	for j := 7; j < 10; j++ {
		if len(m.Obs.ColSpan(j)) != 0 {
			t.Error("measurement error flips an observable")
		}
	}
	if m.Prior[0] != 0.01 || m.Prior[7] != 0.02 {
		t.Error("priors misassigned")
	}
}

func TestPhenomenologicalMatchesPaperShapes(t *testing.T) {
	// HP [[162,2,4]] must give a [81, 243] check matrix (Table 2).
	c, err := code.NewHPByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	m := Phenomenological(c, 0.001, 0.001)
	if m.NumDet != 81 || m.NumMech() != 243 {
		t.Errorf("shape [%d, %d], want [81, 243]", m.NumDet, m.NumMech())
	}
}

func TestCircuitLevelShape(t *testing.T) {
	// BB [[72,12,6]] must give [36, 360] (Table 2).
	c, err := code.NewBBByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	m := CircuitLevel(c, 0.001)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumDet != 36 || m.NumMech() != 360 {
		t.Errorf("shape [%d, %d], want [36, 360]", m.NumDet, m.NumMech())
	}
	// Hook mechanisms must have strictly smaller support than full columns.
	n := c.N
	fullW := len(m.Mech.ColSpan(0))
	hookW := len(m.Mech.ColSpan(n))
	if hookW >= fullW {
		t.Errorf("early hook weight %d not smaller than full %d", hookW, fullW)
	}
	// All data-affecting mechanisms carry the qubit's observable column;
	// measurement/reset mechanisms carry none.
	for i := 0; i < m.NumDet; i++ {
		if len(m.Obs.ColSpan(4*n+i)) != 0 {
			t.Fatal("measurement mechanism flips an observable")
		}
	}
}

func TestSampleSyndromeObservableConsistency(t *testing.T) {
	c := steane(t)
	m := Phenomenological(c, 0.2, 0.2)
	rng := rand.New(rand.NewPCG(1, 1))
	for trial := 0; trial < 50; trial++ {
		e := m.Sample(rng)
		s := m.Syndrome(e)
		// Syndrome must equal the dense product.
		if !s.Equal(m.CheckMatrix().MulVec(e)) {
			t.Fatal("sparse syndrome disagrees with dense")
		}
		// Observables of data part only.
		o := m.Observables(e)
		if o.Len() != 1 {
			t.Fatal("observable length")
		}
	}
}

func TestSampleRate(t *testing.T) {
	c := steane(t)
	m := CodeCapacity(c, 0.3)
	rng := rand.New(rand.NewPCG(2, 2))
	total, fired := 0, 0
	for trial := 0; trial < 2000; trial++ {
		e := m.Sample(rng)
		total += e.Len()
		fired += e.Weight()
	}
	rate := float64(fired) / float64(total)
	if rate < 0.27 || rate > 0.33 {
		t.Errorf("empirical rate %v far from 0.3", rate)
	}
}

func TestValidateCatchesBadPrior(t *testing.T) {
	c := steane(t)
	m := CodeCapacity(c, 0.01)
	m.Prior[3] = 0.7
	if err := m.Validate(); err == nil {
		t.Error("expected prior validation failure")
	}
}

func TestForCodeDispatch(t *testing.T) {
	c := steane(t)
	if got := ForCode(c, "BB", 0.001); got.NumMech() != 4*7+2*3 {
		t.Errorf("BB dispatch gave %d mechanisms", got.NumMech())
	}
	if got := ForCode(c, "HP", 0.001); got.NumMech() != 7+3 {
		t.Errorf("HP dispatch gave %d mechanisms", got.NumMech())
	}
}
