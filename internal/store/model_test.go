package store

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mmprofile/internal/core"
	"mmprofile/internal/filter"
	"mmprofile/internal/vsm"
)

// TestRandomOperationSequences is a model-based test: a random interleaving
// of subscribe / feedback / unsubscribe / checkpoint / reopen operations is
// applied both to the store and to an in-memory model; after every reopen
// the restored learners must score identically to the model's.
func TestRandomOperationSequences(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial) * 977))
			dir := t.TempDir()
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { s.Close() }()

			model := map[string]*core.Profile{}
			users := []string{"u0", "u1", "u2", "u3"}
			learnerNames := []string{"MM", "MMND"}
			terms := []string{"a", "b", "c", "d", "e", "f"}

			randVec := func() vsm.Vector {
				m := map[string]float64{}
				for _, tm := range terms {
					if rng.Float64() < 0.5 {
						m[tm] = rng.Float64() + 0.01
					}
				}
				return vsm.FromMap(m).Normalized()
			}

			verify := func(step int) {
				profiles, events, err := s.Load()
				if err != nil {
					t.Fatalf("step %d: load: %v", step, err)
				}
				restored, err := Restore(profiles, events)
				if err != nil {
					t.Fatalf("step %d: restore: %v", step, err)
				}
				if len(restored) != len(model) {
					t.Fatalf("step %d: restored %d users, model has %d", step, len(restored), len(model))
				}
				for user, want := range model {
					got, ok := restored[user]
					if !ok {
						t.Fatalf("step %d: user %s missing", step, user)
					}
					if got.Name() != want.Name() {
						t.Fatalf("step %d: user %s learner %s != %s", step, user, got.Name(), want.Name())
					}
					for p := 0; p < 5; p++ {
						probe := randVec()
						if math.Abs(got.Score(probe)-want.Score(probe)) > 1e-12 {
							t.Fatalf("step %d: user %s scores diverge", step, user)
						}
					}
				}
			}

			for step := 0; step < 120; step++ {
				switch op := rng.Intn(10); {
				case op < 3: // subscribe (replacing any existing is rejected by broker; here model allows re-subscribe only after unsubscribe)
					user := users[rng.Intn(len(users))]
					if _, exists := model[user]; exists {
						continue
					}
					name := learnerNames[rng.Intn(len(learnerNames))]
					l, err := core.NewNamed(name, nil)
					if err != nil {
						t.Fatal(err)
					}
					if err := s.AppendSubscribe(user, name, nil); err != nil {
						t.Fatal(err)
					}
					model[user] = l
				case op < 7: // feedback
					if len(model) == 0 {
						continue
					}
					var user string
					k := rng.Intn(len(model))
					for u := range model {
						if k == 0 {
							user = u
							break
						}
						k--
					}
					v := randVec()
					fd := filter.Relevant
					if rng.Float64() < 0.4 {
						fd = filter.NotRelevant
					}
					if err := s.AppendFeedback(user, v, fd); err != nil {
						t.Fatal(err)
					}
					model[user].Observe(v, fd)
				case op < 8: // unsubscribe
					user := users[rng.Intn(len(users))]
					if _, exists := model[user]; !exists {
						continue
					}
					if err := s.AppendUnsubscribe(user); err != nil {
						t.Fatal(err)
					}
					delete(model, user)
				case op < 9: // checkpoint (compacts the dirty profiles from the journal)
					if _, err := s.Checkpoint(1); err != nil {
						t.Fatal(err)
					}
				default: // reopen (clean shutdown + restart)
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					if s, err = Open(dir, Options{}); err != nil {
						t.Fatal(err)
					}
				}
				if step%20 == 19 {
					verify(step)
				}
			}
			verify(-1)
		})
	}
}
