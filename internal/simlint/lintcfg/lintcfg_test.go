package lintcfg

import "testing"

func TestClassify(t *testing.T) {
	cfg := Default()
	cases := map[string]Class{
		"gossipstream/internal/megasim":    Deterministic,
		"gossipstream/internal/core":       Deterministic,
		"gossipstream/internal/pss":        Deterministic,
		"gossipstream/internal/experiment": Deterministic,
		"gossipstream/internal/churn":      Deterministic,
		"gossipstream/internal/stream":     Deterministic,
		"gossipstream/internal/wire":       Deterministic,
		"gossipstream/internal/gf256":      Kernel,
		"gossipstream/internal/fec":        Kernel,
		"gossipstream/internal/rt":         WallClockOK,
		"gossipstream/cmd/gossipsim":       WallClockOK,
		"gossipstream/examples/megascale":  WallClockOK,
		"gossipstream/internal/shaping":    Unclassified,
		"gossipstream/internal/xrand":      Unclassified,
		"gossipstream":                     Unclassified,
		"gossipstream/internal/telemetry":  Deterministic,
		// teleclock's path contains the deterministic telemetry segment
		// too; WallClockOK precedence keeps the clock edge exempt.
		"gossipstream/internal/telemetry/teleclock": WallClockOK,
		// Fixture-style single-segment paths classify the same way.
		"core":      Deterministic,
		"rt":        WallClockOK,
		"telemetry": Deterministic,
	}
	for path, want := range cases {
		if got := cfg.Classify(path); got != want {
			t.Errorf("Classify(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestWallClockOKOutranksDeterministic pins the precedence: a path whose
// segments match both classes stays exempt, so cmd/ tooling that embeds a
// deterministic package name is never misclassified.
func TestWallClockOKOutranksDeterministic(t *testing.T) {
	cfg := Default()
	if got := cfg.Classify("gossipstream/cmd/megasim"); got != WallClockOK {
		t.Fatalf("Classify(cmd/megasim) = %v, want WallClockOK", got)
	}
	if got := cfg.Classify("gossipstream/internal/fec"); got != Kernel {
		t.Fatalf("Kernel must outrank Deterministic; got %v", got)
	}
}

func TestRoots(t *testing.T) {
	cfg := Default()
	if rs := cfg.Roots("gossipstream/internal/megasim"); len(rs) == 0 {
		t.Error("megasim has no hot roots configured")
	}
	if rs := cfg.Roots("gossipstream/internal/churn"); rs != nil {
		t.Errorf("churn unexpectedly has hot roots %v", rs)
	}
	if rs := cfg.Roots("gossipstream/internal/telemetry"); len(rs) == 0 {
		t.Error("telemetry has no hot roots configured")
	}
	if rs := cfg.Roots("gossipstream/internal/wire"); len(rs) == 0 {
		t.Error("wire has no hot roots configured")
	}
	// The scheduler implementations must be their own roots: the shard
	// calls them through an interface, which ends hotalloc's static walk,
	// so dropping these entries would silently un-audit the queues.
	roots := map[string]bool{}
	for _, r := range cfg.Roots("gossipstream/internal/megasim") {
		roots[r] = true
	}
	for _, want := range []string{
		"(*heapQueue).push", "(*heapQueue).pop",
		"(*calendarQueue).push", "(*calendarQueue).pop", "(*calendarQueue).peekAt",
	} {
		if !roots[want] {
			t.Errorf("megasim hot roots missing queue entry point %s", want)
		}
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		Deterministic: "deterministic",
		Kernel:        "kernel",
		WallClockOK:   "wall-clock-ok",
		Unclassified:  "unclassified",
	} {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", c, got, want)
		}
	}
}

// TestZeroConfigClassifiesNothing: the zero value must be inert, so a
// misconfigured driver fails open (no spurious findings) rather than
// flagging the world.
func TestZeroConfigClassifiesNothing(t *testing.T) {
	var cfg Config
	if got := cfg.Classify("gossipstream/internal/megasim"); got != Unclassified {
		t.Fatalf("zero config classified %v", got)
	}
}
