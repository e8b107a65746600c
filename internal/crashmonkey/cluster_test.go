package crashmonkey

import "testing"

// TestClusterCampaign runs the full replicated-winefsd fault campaign:
// 1000 seeded runs rotated across partition, replica-lag, torn-stream and
// mid-failover scenarios. The ladder per run: no panic → no silent
// divergence → acked ⇒ visible on a promoted replica → convergence. Runs
// overlap on the host (they are dominated by heartbeat/retry wall-clock
// timers), which is what makes 1000 seeds affordable.
func TestClusterCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster campaign is long; skipped with -short")
	}
	res := RunClusterCampaign(ClusterCampaignConfig{
		Runs: 1000,
		Seed: 0xC10C4,
	})
	t.Logf("campaign: %s", res)
	t.Logf("scenario runs: %v", res.ScenarioRuns)
	t.Logf("lag observed in %d replica-lag runs", res.LagObserved)
	t.Logf("%d runs failed in the parallel pass and were rerun alone", res.Reruns)
	for _, name := range res.PrefixOnly {
		t.Logf("held to a prefix only (a link degraded before the kill): %s", name)
	}

	if !res.OK() {
		for i, f := range res.Failures {
			if i >= 10 {
				t.Errorf("... and %d more failures", len(res.Failures)-i)
				break
			}
			t.Errorf("failure: %s", f)
		}
		t.Fatalf("%d/%d runs broke the ladder", len(res.Failures), res.Runs)
	}
	if res.SilentDivergences != 0 {
		t.Fatalf("%d silent divergences — the campaign's core invariant", res.SilentDivergences)
	}
	// The faults must actually bite: partitions leave the dead primary
	// ahead of the replicas (detected divergence), and torn streams must
	// produce CRC-caught bad records that resync repairs.
	if res.DivergencesDetected == 0 {
		t.Fatal("campaign detected zero divergences — partition scenario is not biting")
	}
	if res.BadRecords == 0 {
		t.Fatal("campaign saw zero bad records — torn-stream scenario is not biting")
	}
	if res.Resyncs == 0 {
		t.Fatal("campaign performed zero resyncs")
	}
	// Every partition and mid-failover run promotes a replica.
	if want := res.ScenarioRuns[ScenarioPartition] + res.ScenarioRuns[ScenarioMidFailover]; res.Promotions != want {
		t.Fatalf("campaign promoted %d replicas, want %d", res.Promotions, want)
	}
}

// TestClusterCampaignSmoke is the tier-1-friendly slice: one run of every
// scenario, still asserting the full ladder.
func TestClusterCampaignSmoke(t *testing.T) {
	res := RunClusterCampaign(ClusterCampaignConfig{
		Runs: 4,
		Seed: 0x5A0E,
	})
	t.Logf("smoke: %s", res)
	if !res.OK() {
		for _, f := range res.Failures {
			t.Errorf("failure: %s", f)
		}
		t.Fatalf("%d/%d smoke runs broke the ladder", len(res.Failures), res.Runs)
	}
	if res.SilentDivergences != 0 {
		t.Fatalf("%d silent divergences", res.SilentDivergences)
	}
}
