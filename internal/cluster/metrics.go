package cluster

import (
	"repro/internal/metrics"
)

// StatsSource is anything that can snapshot cluster statistics — the
// in-process Cluster here, or a daemon's periodically refreshed copy.
type StatsSource interface {
	Stats() Stats
}

// MetricsCollector exposes replication health on /metrics: stream volume,
// per-replica lag, retries/resyncs, degrades and failovers.
func MetricsCollector(src StatsSource) metrics.Collector {
	return metrics.CollectorFunc(func() []metrics.Family {
		st := src.Stats()
		fams := []metrics.Family{
			metrics.Gauge("cluster_epoch", "Current primary epoch.", float64(st.Epoch)),
			metrics.Counter("cluster_failovers_total", "Primary handovers performed.", float64(st.Failovers)),
			metrics.Counter("cluster_records_logged_total", "Replication records appended to the ring.", float64(st.Repl.RecordsLogged)),
			metrics.Counter("cluster_bytes_logged_total", "Payload bytes appended to the replication ring.", float64(st.Repl.BytesLogged)),
			metrics.Counter("cluster_records_streamed_total", "Replication records sent over links (includes retries and resyncs).", float64(st.Repl.RecordsStreamed)),
			metrics.Counter("cluster_bytes_streamed_total", "Payload bytes sent over replication links.", float64(st.Repl.BytesStreamed)),
			metrics.Counter("cluster_retries_total", "Replication link reconnect attempts.", float64(st.Repl.Retries)),
			metrics.Counter("cluster_resyncs_total", "Full-image replica resyncs.", float64(st.Repl.Resyncs)),
			metrics.Counter("cluster_ring_overruns_total", "Ring evictions that forced a replica resync.", float64(st.Repl.RingOverruns)),
			metrics.Counter("cluster_degrades_total", "Links dropped to degraded (divergence window opened).", float64(st.Repl.Degrades)),
			metrics.Counter("cluster_heartbeats_total", "Heartbeat frames sent on idle links.", float64(st.Repl.Heartbeats)),
			metrics.Counter("cluster_sync_waits_total", "Synchronous-mode durability waits.", float64(st.Repl.SyncWaits)),
			metrics.Counter("cluster_sync_timeouts_total", "Durability waits that timed out into degraded mode.", float64(st.Repl.SyncTimeouts)),
		}
		lag := metrics.Family{
			Name: "cluster_replica_lag_records",
			Help: "Records each replica trails the primary by.",
			Type: "gauge",
		}
		state := metrics.Family{
			Name: "cluster_replica_streaming",
			Help: "1 when the replica link is streaming, 0 otherwise.",
			Type: "gauge",
		}
		for _, l := range st.Repl.Links {
			lag.Samples = append(lag.Samples, metrics.Sample{
				Labels: map[string]string{"replica": l.Name},
				Value:  float64(l.Lag),
			})
			v := 0.0
			if l.State == LinkStreaming.String() {
				v = 1
			}
			state.Samples = append(state.Samples, metrics.Sample{
				Labels: map[string]string{"replica": l.Name, "state": l.State},
				Value:  v,
			})
		}
		if len(lag.Samples) > 0 {
			fams = append(fams, lag, state)
		}
		return fams
	})
}
