package stat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalPDF(t *testing.T) {
	// Standard normal density at 0 is 1/√(2π).
	got := StdNormal.PDF(0)
	want := 1 / math.Sqrt(2*math.Pi)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("PDF(0) = %v, want %v", got, want)
	}
	// Symmetry.
	if math.Abs(StdNormal.PDF(1.3)-StdNormal.PDF(-1.3)) > 1e-15 {
		t.Error("PDF not symmetric")
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{1, 0.8413447460685429},
	}
	for _, c := range cases {
		if got := StdNormal.CDF(c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("CDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormalCDFShiftScale(t *testing.T) {
	n := Normal{Mu: 3, Sigma: 2}
	if got := n.CDF(3); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("CDF(mu) = %v, want 0.5", got)
	}
	if got := n.CDF(3 + 2*1.959963984540054); math.Abs(got-0.975) > 1e-9 {
		t.Errorf("CDF(mu+1.96σ) = %v, want 0.975", got)
	}
}

func TestQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.025, -1.959963984540054},
		{0.8413447460685429, 1},
	}
	for _, c := range cases {
		if got := StdNormal.Quantile(c.p); math.Abs(got-c.want) > 1e-8 {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestQuantileEdges(t *testing.T) {
	if !math.IsInf(StdNormal.Quantile(1), 1) {
		t.Error("Quantile(1) should be +Inf")
	}
	if !math.IsInf(StdNormal.Quantile(0), -1) {
		t.Error("Quantile(0) should be -Inf")
	}
	if !math.IsNaN(StdNormal.Quantile(-0.1)) || !math.IsNaN(StdNormal.Quantile(1.1)) {
		t.Error("Quantile outside [0,1] should be NaN")
	}
}

// Property: Quantile inverts CDF across the usable range.
func TestQuantileCDFRoundTrip(t *testing.T) {
	for p := 0.01; p < 0.995; p += 0.01 {
		x := StdNormal.Quantile(p)
		if got := StdNormal.CDF(x); math.Abs(got-p) > 1e-10 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestConfidenceZ(t *testing.T) {
	// 95% two-sided ⇒ 1.96.
	if got := ConfidenceZ(0.95); math.Abs(got-1.959963984540054) > 1e-8 {
		t.Errorf("ConfidenceZ(0.95) = %v", got)
	}
	// Monotone in c.
	prev := 0.0
	for c := 0.05; c < 1; c += 0.05 {
		z := ConfidenceZ(c)
		if z <= prev {
			t.Errorf("ConfidenceZ not increasing at c=%v", c)
		}
		prev = z
	}
}

func TestIntervalBasics(t *testing.T) {
	iv := NewInterval(0.3, 0.1, 0.9)
	if math.Abs(iv.Size()-0.2) > 1e-15 {
		t.Errorf("Size = %v, want 0.2", iv.Size())
	}
	if !iv.Contains(0.25) || iv.Contains(0.45) {
		t.Error("Contains misbehaves")
	}
	if !iv.IsValid() {
		t.Error("interval should be valid")
	}
}

func TestIntervalNegativeHalfWidth(t *testing.T) {
	iv := NewInterval(0.5, -0.1, 0.9)
	if iv.Lo != 0.4 || iv.Hi != 0.6 {
		t.Errorf("negative half width mishandled: %v", iv)
	}
}

func TestIntervalClamp(t *testing.T) {
	iv := NewInterval(0.05, 0.2, 0.9).ClampTo(0, 1)
	if iv.Lo != 0 {
		t.Errorf("Lo = %v, want 0", iv.Lo)
	}
	if math.Abs(iv.Hi-0.25) > 1e-15 {
		t.Errorf("Hi = %v, want 0.25", iv.Hi)
	}
}

func TestIntervalInvalid(t *testing.T) {
	bad := Interval{Lo: math.NaN(), Hi: 1}
	if bad.IsValid() {
		t.Error("NaN interval reported valid")
	}
	bad = Interval{Lo: 2, Hi: 1}
	if bad.IsValid() {
		t.Error("inverted interval reported valid")
	}
}

func TestIntervalString(t *testing.T) {
	if NewInterval(0.3, 0.1, 0.8).String() == "" {
		t.Error("empty String")
	}
}

func TestWilsonBasics(t *testing.T) {
	iv := Wilson(50, 100, 0.95)
	if !iv.Contains(0.5) {
		t.Errorf("Wilson(50,100) should contain 0.5: %v", iv)
	}
	if iv.Lo < 0 || iv.Hi > 1 {
		t.Errorf("Wilson out of [0,1]: %v", iv)
	}
	// Extremes stay in range.
	iv = Wilson(0, 10, 0.95)
	if iv.Lo != 0 || iv.Hi > 0.35 {
		t.Errorf("Wilson(0,10) = %v", iv)
	}
	iv = Wilson(10, 10, 0.95)
	if iv.Hi != 1 || iv.Lo < 0.65 {
		t.Errorf("Wilson(10,10) = %v", iv)
	}
}

func TestWilsonDegenerate(t *testing.T) {
	iv := Wilson(0, 0, 0.9)
	if iv.Lo != 0 || iv.Hi != 1 {
		t.Errorf("Wilson with n=0 should be vacuous, got %v", iv)
	}
}

func TestWaldMatchesHandComputation(t *testing.T) {
	iv := Wald(40, 100, 0.95)
	half := 1.959963984540054 * math.Sqrt(0.4*0.6/100)
	if math.Abs(iv.Lo-(0.4-half)) > 1e-9 || math.Abs(iv.Hi-(0.4+half)) > 1e-9 {
		t.Errorf("Wald = %v", iv)
	}
}

// Property: the Wilson interval always contains the point estimate and
// narrows as n grows.
func TestWilsonProperties(t *testing.T) {
	f := func(k8 uint8, c8 uint8) bool {
		n := 100
		k := int(k8) % (n + 1)
		c := 0.05 + 0.9*float64(c8)/255
		iv := Wilson(k, n, c)
		p := float64(k) / float64(n)
		// Containment up to roundoff: at k=0 or k=n the clamped endpoint can
		// land one ulp inside the unit interval.
		if p < iv.Lo-1e-12 || p > iv.Hi+1e-12 {
			return false
		}
		big := Wilson(k*10, n*10, c)
		return big.Size() <= iv.Size()+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestClamp01(t *testing.T) {
	if Clamp01(-0.5) != 0 || Clamp01(1.5) != 1 || Clamp01(0.3) != 0.3 {
		t.Error("Clamp01 misbehaves")
	}
}
