// Command mmstore inspects an mmserver state directory (see
// internal/store): the manifest-committed generation, the segment and
// journal (including crash damage: torn tails and committed extent), and
// the profiles that recovery would reconstruct. The directory is opened
// read-only, so it is safe to point at a live server's state.
//
// Usage:
//
//	mmstore -state DIR           # summary: generation, bytes, dirty users, users
//	mmstore -state DIR -user ID  # one restored profile in detail
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mmprofile/internal/core"
	"mmprofile/internal/store"
)

func main() {
	var (
		stateDir = flag.String("state", "", "state directory")
		user     = flag.String("user", "", "show one user's restored profile")
	)
	flag.Parse()
	if *stateDir == "" {
		fmt.Fprintln(os.Stderr, "mmstore: need -state DIR")
		os.Exit(2)
	}

	// Read-only: an inspector must never mutate the state directory (the
	// writing open repairs torn tails in place and bumps no-op fsyncs), and
	// it must still work on a log a live server has open or one too
	// corrupt for a writer to accept.
	st, err := store.Open(*stateDir, store.Options{ReadOnly: true})
	if err != nil {
		fail(err)
	}
	defer st.Close()
	info, infoErr := st.WALInfo()
	users, err := st.RestoredUsers()
	if err != nil {
		// Surface the journal damage before giving up.
		if infoErr != nil {
			fmt.Fprintf(os.Stderr, "mmstore: journal generation %d: %v (%d record(s) readable, %d committed byte(s))\n",
				info.Gen, infoErr, info.Records, info.Committed)
		}
		fail(err)
	}

	if *user == "" {
		summarize(users, info)
		return
	}
	l, ok, err := st.RestoreUser(*user)
	if err != nil {
		fail(err)
	}
	if !ok {
		fail(fmt.Errorf("no such user %q (known: %v)", *user, users))
	}
	describe(*user, l)
}

func summarize(users []string, info store.WALInfo) {
	fmt.Printf("manifest epoch:   %d\n", info.Seq)
	fmt.Printf("generation:       %d\n", info.Gen)
	fmt.Printf("segment profiles: %d\n", info.SegProfiles)
	fmt.Printf("segment bytes:    %d\n", info.SegBytes)
	fmt.Printf("journal events:   %d (%d feedback, %d subscribe, %d unsubscribe)\n", info.Records,
		info.ByType[store.EventFeedback], info.ByType[store.EventSubscribe], info.ByType[store.EventUnsubscribe])
	fmt.Printf("journal bytes:    %d committed", info.Committed)
	if info.Torn > 0 {
		// A torn tail is a crash artifact, not corruption: the next writing
		// open will truncate it away.
		fmt.Printf(" + %d torn (crash artifact; repaired on next server start)", info.Torn)
	}
	fmt.Println()
	fmt.Printf("dirty users:      %d\n", info.DirtyUsers)
	fmt.Printf("users after replay: %d\n", len(users))
	for _, u := range users {
		fmt.Printf("  %s\n", u)
	}
}

func describe(user string, l *core.Profile) {
	fmt.Printf("user:         %s\n", user)
	fmt.Printf("learner:      %s\n", l.Name())
	fmt.Printf("profile size: %d vector(s)\n", l.ProfileSize())
	for i, v := range l.ProfileVectors() {
		if i >= 10 {
			fmt.Printf("  … and %d more\n", l.ProfileSize()-10)
			break
		}
		fmt.Printf("  #%d (%d terms): %s\n", i+1, v.Len(), strings.Join(v.TopTerms(6), " "))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mmstore:", err)
	os.Exit(1)
}
