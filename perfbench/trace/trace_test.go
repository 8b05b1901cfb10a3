package trace

import (
	"testing"
	"time"

	"gossipstream/internal/churn"
	"gossipstream/internal/experiment"
	"gossipstream/perfbench/ledger"
)

// TestMirrorMatchesExperiment runs small deployments through the traced
// mirror and through internal/experiment: the mirror must execute the
// same events and score the same manifest, and its spans must account
// for its lane time.
func TestMirrorMatchesExperiment(t *testing.T) {
	full := experiment.Defaults()
	full.Nodes, full.Shards = 40, 1
	full.Layout.Windows = 4
	full.Drain = 5 * time.Second

	cyclon := full
	cyclon.Nodes, cyclon.Shards = 120, 2
	cyclon.Membership = experiment.MembershipCyclon
	p := churn.SustainedPoisson(2, 2)
	cyclon.ChurnProcess = &p

	for name, cfg := range map[string]experiment.Config{"full-1shard": full, "cyclon-churn-2shards": cyclon} {
		t.Run(name, func(t *testing.T) {
			want, err := experiment.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Events != want.Events {
				t.Errorf("traced mirror executed %d events, experiment %d", got.Events, want.Events)
			}
			if same, err := ledger.SameOutcome(got.Manifest, want.Manifest("experiment")); err != nil || !same {
				t.Errorf("traced manifest %+v differs from the experiment's %+v (%v)", got.Manifest, want.Manifest("experiment"), err)
			}
			if got.Metrics["trace.self_sum_err_pct"] > SelfSumTolerancePct {
				t.Errorf("self times off by %.2f%%", got.Metrics["trace.self_sum_err_pct"])
			}
			for _, p := range got.Problems {
				// Short runs collect too few CPU samples to judge attribution.
				if len(p) < 7 || p[:7] != "profile" {
					t.Error(p)
				}
			}
			if name == "cyclon-churn-2shards" && (got.Metrics["experiment.admit.calls"] == 0 || got.Metrics["experiment.depart.calls"] == 0) {
				t.Errorf("churn barriers not traced: %v admits, %v departs",
					got.Metrics["experiment.admit.calls"], got.Metrics["experiment.depart.calls"])
			}
		})
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer(1)
	l := tr.lanes[0]
	tr.enter(l, spPropose)
	tr.enter(l, spSend)
	time.Sleep(2 * time.Millisecond)
	tr.exit(l)
	tr.exit(l)
	if !tr.balanced() {
		t.Fatal("stack not empty")
	}
	if l.calls[spPropose] != 1 || l.calls[spSend] != 1 {
		t.Fatalf("calls = %v", l.calls)
	}
	if l.root != l.self[spPropose]+l.self[spSend] {
		t.Errorf("root %d != parent self %d + child self %d", l.root, l.self[spPropose], l.self[spSend])
	}
	if l.self[spSend] < int64(2*time.Millisecond) {
		t.Errorf("child self %d shorter than its sleep", l.self[spSend])
	}
}
