package obs

import (
	"strings"
	"testing"
	"time"
)

func TestHealthEmptyAndNil(t *testing.T) {
	// The bare snapshot a nil health func serves: ready, no components.
	s := NewSnapshot(false, nil)
	if s.Status != "ready" || !s.Ready() || s.Draining || s.Components != nil {
		t.Errorf("bare snapshot = %+v", s)
	}
	if s := NewSnapshot(false, map[string]ComponentHealth{}); s.Status != "ready" || len(s.Components) != 0 {
		t.Errorf("empty snapshot = %+v", s)
	}
	if (HealthSnapshot{}).Ready() {
		t.Error("zero snapshot (no status) reports Ready")
	}
}

func TestHealthCheckPrecedence(t *testing.T) {
	comps := map[string]ComponentHealth{
		"store_wal":    {Status: "ready"},
		"publish_path": {Status: "ready"},
	}
	s := NewSnapshot(false, comps)
	if s.Status != "ready" {
		t.Fatalf("status = %s, want ready", s.Status)
	}

	// One degraded component → overall degraded, still serving.
	comps["publish_path"] = ComponentHealth{Status: "degraded", Reason: "heartbeat stale"}
	s = NewSnapshot(false, comps)
	if s.Status != "degraded" || !s.Ready() {
		t.Fatalf("status = %s Ready=%v, want degraded/serving", s.Status, s.Ready())
	}
	if c := s.Components["publish_path"]; c.Status != "degraded" || c.Reason != "heartbeat stale" {
		t.Errorf("publish_path component = %+v", c)
	}

	// One hard-failed component → overall not_ready, wins over degraded
	// whichever order the map yields them in.
	comps["store_wal"] = ComponentHealth{Status: "not_ready", Reason: "wal: read-only"}
	for i := 0; i < 20; i++ {
		s = NewSnapshot(false, comps)
		if s.Status != "not_ready" || s.Ready() {
			t.Fatalf("status = %s Ready=%v, want not_ready/refusing", s.Status, s.Ready())
		}
	}
	if c := s.Components["store_wal"]; c.Status != "not_ready" || c.Reason != "wal: read-only" {
		t.Errorf("store_wal component = %+v", c)
	}
}

func TestHealthPushComponents(t *testing.T) {
	comps := map[string]ComponentHealth{"server": {Status: "not_ready", Reason: "starting"}}
	if s := NewSnapshot(false, comps); s.Status != "not_ready" || s.Components["server"].Reason != "starting" {
		t.Fatalf("startup snapshot = %+v", s)
	}
	comps["server"] = ComponentHealth{Status: "ready"}
	if s := NewSnapshot(false, comps); s.Status != "ready" {
		t.Fatalf("post-start snapshot = %+v", s)
	}
}

func TestHealthHeartbeatStaleness(t *testing.T) {
	const maxAge = 2 * time.Second
	beat := func(age time.Duration) HealthSnapshot {
		return NewSnapshot(false, map[string]ComponentHealth{"publish_path": Heartbeat(age, maxAge)})
	}

	if s := beat(0); s.Status != "ready" {
		t.Fatalf("fresh heartbeat snapshot = %+v", s)
	}
	s := beat(1500 * time.Millisecond)
	if s.Status != "ready" {
		t.Fatalf("within-age snapshot = %+v", s)
	}
	if got := s.Components["publish_path"].LastBeatAgoMS; got != 1500 {
		t.Errorf("LastBeatAgoMS = %d, want 1500", got)
	}
	if s := beat(maxAge); s.Status != "ready" {
		t.Fatalf("at-max-age snapshot = %+v, want ready", s)
	}

	s = beat(4500 * time.Millisecond)
	if s.Status != "degraded" || !s.Ready() {
		t.Fatalf("stale heartbeat status = %s, want degraded/serving", s.Status)
	}
	c := s.Components["publish_path"]
	if c.LastBeatAgoMS != 4500 || !strings.Contains(c.Reason, "4.5s") || !strings.Contains(c.Reason, "2s") {
		t.Errorf("stale heartbeat component = %+v, want its age and the max in the reason", c)
	}

	if s := beat(10 * time.Millisecond); s.Status != "ready" {
		t.Fatalf("post-beat snapshot = %+v", s)
	}
}

func TestHealthDrainOverridesEverything(t *testing.T) {
	comps := map[string]ComponentHealth{
		"store_wal":    {Status: "ready"},
		"server":       {Status: "not_ready", Reason: "starting"},
		"publish_path": {Status: "degraded"},
	}
	s := NewSnapshot(true, comps)
	if s.Status != "draining" || !s.Draining || s.Ready() {
		t.Fatalf("draining snapshot = %+v", s)
	}
	// Components keep reporting their own state underneath.
	for name, want := range map[string]string{"store_wal": "ready", "server": "not_ready", "publish_path": "degraded"} {
		if c := s.Components[name]; c.Status != want {
			t.Errorf("%s under drain = %+v, want %s", name, c, want)
		}
	}
}
