package loadtrack

import (
	"errors"
	"math"
	"strings"
	"testing"

	"netsamp/internal/state"
)

func TestNewDefaultsAndValidation(t *testing.T) {
	tr, err := New(3, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cfg := tr.Config()
	if cfg.Alpha != 1 || cfg.WidenFactor != 1.25 {
		t.Fatalf("defaults not filled: %+v", cfg)
	}
	for i := 0; i < 3; i++ {
		if tr.Age(i) != -1 {
			t.Fatalf("link %d age %d, want -1 (never observed)", i, tr.Age(i))
		}
	}
	bad := []Config{
		{Alpha: -0.1}, {Alpha: 1.5}, {Alpha: math.NaN()},
		{WidenFactor: 0.9}, {WidenFactor: math.Inf(1)},
	}
	for _, c := range bad {
		if _, err := New(1, c); err == nil {
			t.Errorf("New accepted bad config %+v", c)
		}
	}
	if _, err := New(-1, Config{}); err == nil {
		t.Error("New accepted negative length")
	}
}

func TestObserveTightensAndWidens(t *testing.T) {
	tr := MustNew(2, Config{Alpha: 0.5, WidenFactor: 1.5})
	// First observation anchors the estimate at the stated error.
	if err := tr.Observe([]float64{100, 200}, []float64{0.1, 0.1}, nil); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if tr.Mean(0) != 100 || tr.Rel(0) != 0.1 || tr.Age(0) != 0 {
		t.Fatalf("first observation: mean %v rel %v age %d", tr.Mean(0), tr.Rel(0), tr.Age(0))
	}
	// Repeated observation tightens the interval below the observation
	// error (quadrature combine with the filter memory).
	if err := tr.Observe([]float64{100, 200}, []float64{0.1, 0.1}, nil); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if got := tr.Rel(0); got >= 0.1 {
		t.Fatalf("repeated observation rel %v, want < 0.1", got)
	}
	relBefore := tr.Rel(1)
	// Unobserved link 1 widens multiplicatively and freezes the mean.
	if err := tr.Observe([]float64{100, 999}, []float64{0.1, 0.1}, []bool{true, false}); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if tr.Mean(1) != 200 {
		t.Fatalf("unobserved mean moved to %v, want frozen 200", tr.Mean(1))
	}
	if got, want := tr.Rel(1), relBefore*1.5; math.Abs(got-want) > 1e-15 {
		t.Fatalf("unobserved rel %v, want %v", got, want)
	}
	if tr.Age(1) != 1 {
		t.Fatalf("unobserved age %d, want 1", tr.Age(1))
	}
	// Widening saturates at maxRel.
	for i := 0; i < 50; i++ {
		if err := tr.Observe([]float64{100, 999}, nil, []bool{true, false}); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	if got := tr.Rel(1); got != maxRel {
		t.Fatalf("widening saturated at %v, want maxRel %v", got, maxRel)
	}
}

func TestNeverObservedAdoptsPrior(t *testing.T) {
	tr := MustNew(1, Config{})
	if err := tr.Observe([]float64{42}, nil, []bool{false}); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if tr.Mean(0) != 42 || tr.Rel(0) != maxRel || tr.Age(0) != -1 {
		t.Fatalf("prior adoption: mean %v rel %v age %d", tr.Mean(0), tr.Rel(0), tr.Age(0))
	}
	lo, hi := tr.Bounds(0)
	if !(lo > 0) || !(hi > lo) {
		t.Fatalf("prior bounds [%v, %v], want 0 < lo < hi", lo, hi)
	}
}

func TestInfiniteRelErrCountsAsUnobserved(t *testing.T) {
	tr := MustNew(1, Config{})
	if err := tr.Observe([]float64{100}, []float64{0.1}, nil); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	relBefore := tr.Rel(0)
	if err := tr.Observe([]float64{5}, []float64{math.Inf(1)}, nil); err != nil {
		t.Fatalf("Observe with +Inf relErr: %v", err)
	}
	if tr.Mean(0) != 100 {
		t.Fatalf("no-information observation moved the mean to %v", tr.Mean(0))
	}
	if tr.Rel(0) <= relBefore {
		t.Fatalf("no-information observation did not widen: %v -> %v", relBefore, tr.Rel(0))
	}
}

func TestBoundsEnvelope(t *testing.T) {
	tr := MustNew(1, Config{})
	if err := tr.Observe([]float64{100}, []float64{0.1}, nil); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	lo, hi := tr.Bounds(0)
	if math.Abs(lo-80) > 1e-12 || math.Abs(hi-120) > 1e-12 {
		t.Fatalf("bounds [%v, %v], want [80, 120]", lo, hi)
	}
	// A very wide interval floors the lower bound above zero.
	for i := 0; i < 50; i++ {
		if err := tr.Observe([]float64{100}, nil, []bool{false}); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	lo, _ = tr.Bounds(0)
	if want := 100 * minLowerFrac; math.Abs(lo-want) > 1e-12 {
		t.Fatalf("floored lower bound %v, want %v", lo, want)
	}
	both := make([]float64, 1)
	hiInto := make([]float64, 1)
	tr.BoundsInto(both, hiInto)
	l2, h2 := tr.Bounds(0)
	if both[0] != l2 || hiInto[0] != h2 {
		t.Fatal("BoundsInto disagrees with Bounds")
	}
}

func TestObserveRejectsBadInputs(t *testing.T) {
	tr := MustNew(2, Config{})
	if err := tr.Observe([]float64{1}, nil, nil); err == nil {
		t.Error("accepted short values")
	}
	if err := tr.Observe([]float64{1, 2}, []float64{0.1}, nil); err == nil {
		t.Error("accepted short relErr")
	}
	if err := tr.Observe([]float64{1, 2}, nil, []bool{true}); err == nil {
		t.Error("accepted short observed")
	}
	if err := tr.Observe([]float64{math.NaN(), 2}, nil, nil); err == nil {
		t.Error("accepted NaN value")
	}
	if err := tr.Observe([]float64{-1, 2}, nil, nil); err == nil {
		t.Error("accepted negative value")
	}
	if err := tr.Observe([]float64{1, 2}, []float64{math.NaN(), 0}, nil); err == nil {
		t.Error("accepted NaN relErr for an observed link")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	tr := MustNew(3, Config{Alpha: 0.3})
	for i := 0; i < 5; i++ {
		obs := []bool{true, i%2 == 0, false}
		if err := tr.Observe([]float64{100, 50, 10}, []float64{0.05, 0.2, 0.5}, obs); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	st := tr.Snapshot()
	blob, err := st.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back State
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	tr2 := MustNew(0, tr.Config())
	if err := tr2.Restore(back); err != nil {
		t.Fatalf("restore: %v", err)
	}
	for i := 0; i < 3; i++ {
		if tr2.Mean(i) != tr.Mean(i) || tr2.Rel(i) != tr.Rel(i) || tr2.Age(i) != tr.Age(i) {
			t.Fatalf("link %d diverged after round trip", i)
		}
	}
	// Continued updates are bit-identical to the uninterrupted tracker.
	for i := 0; i < 3; i++ {
		v := []float64{90, 60, 20}
		e := []float64{0.1, 0.1, 0.1}
		o := []bool{true, false, true}
		if err := tr.Observe(v, e, o); err != nil {
			t.Fatal(err)
		}
		if err := tr2.Observe(v, e, o); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if tr2.Mean(i) != tr.Mean(i) || tr2.Rel(i) != tr.Rel(i) {
			t.Fatalf("link %d diverged after restore-resume", i)
		}
	}
}

func TestRestoreRejectsBadState(t *testing.T) {
	tr := MustNew(1, Config{})
	bad := []State{
		{Mean: []float64{1}, Rel: []float64{0.1, 0.2}, Age: []int64{0}},
		{Mean: []float64{math.NaN()}, Rel: []float64{0.1}, Age: []int64{0}},
		{Mean: []float64{-1}, Rel: []float64{0.1}, Age: []int64{0}},
		{Mean: []float64{1}, Rel: []float64{math.Inf(1)}, Age: []int64{0}},
		{Mean: []float64{1}, Rel: []float64{-0.1}, Age: []int64{0}},
		{Mean: []float64{1}, Rel: []float64{0.1}, Age: []int64{-2}},
	}
	for i, st := range bad {
		err := tr.Restore(st)
		if err == nil {
			t.Errorf("case %d: restore accepted bad state", i)
			continue
		}
		if !errors.Is(err, ErrBadState) {
			t.Errorf("case %d: error %v does not wrap ErrBadState", i, err)
		}
	}
}

func TestUnmarshalRejectsCorruptPayloads(t *testing.T) {
	st := MustNew(2, Config{}).Snapshot()
	blob, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var s State
	if err := s.UnmarshalBinary(blob[:len(blob)-1]); !errors.Is(err, state.ErrCodec) {
		t.Errorf("truncated payload: err %v, want ErrCodec", err)
	}
	if err := s.UnmarshalBinary(append(append([]byte{}, blob...), 0)); !errors.Is(err, state.ErrCodec) {
		t.Errorf("trailing byte: err %v, want ErrCodec", err)
	}
	wrong := append([]byte{}, blob...)
	wrong[0] = 99
	if err := s.UnmarshalBinary(wrong); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("wrong version: err %v, want version rejection", err)
	}
	if _, err := (State{Mean: []float64{1}}).MarshalBinary(); err == nil {
		t.Error("mismatched marshal lengths accepted")
	}
}
