package cluster

import (
	"repro/internal/metrics"
)

// MetricsCollector exposes a primary's replication health on /metrics:
// its epoch, stream volume, per-replica lag, retries/resyncs and degrades.
func MetricsCollector(r *Replicator) metrics.Collector {
	return metrics.CollectorFunc(func() []metrics.Family {
		st := r.Stats()
		fams := []metrics.Family{
			metrics.Gauge("cluster_epoch", "Current primary epoch.", float64(st.Epoch)),
			metrics.Counter("cluster_records_logged_total", "Replication records appended to the ring.", float64(st.RecordsLogged)),
			metrics.Counter("cluster_bytes_logged_total", "Payload bytes appended to the replication ring.", float64(st.BytesLogged)),
			metrics.Counter("cluster_records_streamed_total", "Replication records sent over links (includes retries and resyncs).", float64(st.RecordsStreamed)),
			metrics.Counter("cluster_bytes_streamed_total", "Payload bytes sent over replication links.", float64(st.BytesStreamed)),
			metrics.Counter("cluster_retries_total", "Replication link reconnect attempts.", float64(st.Retries)),
			metrics.Counter("cluster_resyncs_total", "Full-image replica resyncs.", float64(st.Resyncs)),
			metrics.Counter("cluster_ring_overruns_total", "Ring evictions that forced a replica resync.", float64(st.RingOverruns)),
			metrics.Counter("cluster_degrades_total", "Links dropped to degraded (divergence window opened).", float64(st.Degrades)),
			metrics.Counter("cluster_heartbeats_total", "Heartbeat frames sent on idle links.", float64(st.Heartbeats)),
			metrics.Counter("cluster_sync_waits_total", "Synchronous-mode durability waits.", float64(st.SyncWaits)),
			metrics.Counter("cluster_sync_timeouts_total", "Durability waits that timed out into degraded mode.", float64(st.SyncTimeouts)),
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
		for _, l := range st.Links {
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
