package obs

import "time"

// ComponentHealth is one component's state in a snapshot.
type ComponentHealth struct {
	Status        string `json:"status"` // ready | degraded | not_ready
	Reason        string `json:"reason,omitempty"`
	LastBeatAgoMS int64  `json:"last_beat_ago_ms,omitempty"`
}

// HealthSnapshot is the /readyz JSON document. internal/server gathers its
// components from what the server knows and NewSnapshot applies the
// readiness rule; the status handler and the flight recorder only serve it.
type HealthSnapshot struct {
	Status     string                     `json:"status"` // ready | degraded | not_ready | draining
	Draining   bool                       `json:"draining"`
	Components map[string]ComponentHealth `json:"components,omitempty"`
}

// Ready reports whether the snapshot should answer 200: serving states
// (ready, degraded) do; refusing states (not_ready, draining) do not.
func (s HealthSnapshot) Ready() bool {
	return s.Status == "ready" || s.Status == "degraded"
}

// NewSnapshot applies the one readiness rule to the components: draining
// outranks everything, then any not_ready component, then any degraded
// one; otherwise ready. Components keep their own state underneath. With
// no components and no drain it is the bare "ready" a nil health func
// serves.
func NewSnapshot(draining bool, components map[string]ComponentHealth) HealthSnapshot {
	snap := HealthSnapshot{Status: "ready", Draining: draining, Components: components}
	if draining {
		snap.Status = "draining"
		return snap
	}
	for _, c := range components {
		switch c.Status {
		case "not_ready":
			snap.Status = "not_ready"
		case "degraded":
			if snap.Status == "ready" {
				snap.Status = "degraded"
			}
		}
	}
	return snap
}

// Heartbeat is a beaten component's state: ready with its age up to
// maxAge, degraded past it, with the age in the reason.
func Heartbeat(age, maxAge time.Duration) ComponentHealth {
	c := ComponentHealth{Status: "ready", LastBeatAgoMS: age.Milliseconds()}
	if age > maxAge {
		c.Status = "degraded"
		c.Reason = "heartbeat stale: last beat " + age.Truncate(time.Millisecond).String() +
			" ago (max " + maxAge.String() + ")"
	}
	return c
}
