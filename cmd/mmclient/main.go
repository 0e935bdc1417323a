// Command mmclient talks to an mmserver: subscribe with an adaptive
// profile, publish pages, stream deliveries, send relevance feedback, and
// inspect profiles.
//
// Usage:
//
//	mmclient [-addr host:7070] subscribe -user alice [-learner MM|MMND] [-keywords "cats,jazz"]
//	mmclient publish -file page.html        (or -text "...")
//	mmclient listen -user alice [-batch 64] (server-push session; streams until closed)
//	mmclient feedback -user alice -doc 12 -relevant=true
//	mmclient profile -user alice
//	mmclient fetch -doc 12                  (server must run -retain-content)
//	mmclient export -user alice -out alice.profile   (or > alice.profile)
//	mmclient import -user alice -in alice.profile
//	mmclient stats                          (wire-protocol counters)
//	mmclient unsubscribe -user alice
//
// The server's status surfaces (/statsz, /tracez, /explainz, /topz,
// /readyz) are read with any HTTP client on its -http listener.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"mmprofile/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "mmserver address")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	cmd, rest := args[0], args[1:]
	if !slices.Contains(commands, cmd) {
		usage() // before the dial: a mistyped command is not a network error
	}

	c, err := wire.Dial(*addr)
	if err != nil {
		fail(err)
	}
	defer c.Close()

	switch cmd {
	case "subscribe":
		fs := flag.NewFlagSet("subscribe", flag.ExitOnError)
		user := fs.String("user", "", "subscriber id")
		learner := fs.String("learner", "", "MM or MMND (default MM)")
		keywords := fs.String("keywords", "", "comma-separated seed keywords (MM only)")
		parse(fs, rest)
		var kw []string
		if *keywords != "" {
			for _, k := range strings.Split(*keywords, ",") {
				kw = append(kw, strings.TrimSpace(k))
			}
		}
		check(c.Subscribe(*user, *learner, kw))
		fmt.Printf("subscribed %s\n", *user)

	case "unsubscribe":
		fs := flag.NewFlagSet("unsubscribe", flag.ExitOnError)
		user := fs.String("user", "", "subscriber id")
		parse(fs, rest)
		check(c.Unsubscribe(*user))
		fmt.Printf("unsubscribed %s\n", *user)

	case "publish":
		fs := flag.NewFlagSet("publish", flag.ExitOnError)
		file := fs.String("file", "", "HTML/text file to publish")
		textArg := fs.String("text", "", "literal content to publish")
		parse(fs, rest)
		content := *textArg
		if *file != "" {
			raw, err := os.ReadFile(*file)
			if err != nil {
				fail(err)
			}
			content = string(raw)
		}
		if content == "" {
			fail(fmt.Errorf("publish needs -file or -text"))
		}
		doc, delivered, traceID, err := c.PublishTrace(content, "")
		check(err)
		fmt.Printf("doc %d delivered to %d subscriber(s)\n", doc, delivered)
		if traceID != "" {
			fmt.Printf("trace %s (/tracez?trace=%s)\n", traceID, traceID)
		}

	case "listen":
		// listen holds the connection open in server-push session mode and
		// prints deliveries as the server pushes them, queued ones first;
		// sequence gaps (deliveries lost to queue overflow) are reported as
		// they are observed.
		fs := flag.NewFlagSet("listen", flag.ExitOnError)
		user := fs.String("user", "", "subscriber id")
		batch := fs.Int("batch", 0, "max deliveries coalesced per pushed frame (0 = server default)")
		parse(fs, rest)
		sess, err := c.Session(*user, *batch)
		check(err)
		fmt.Printf("listening as %s (next seq %d, %d dropped so far; ctrl-c to stop)\n",
			*user, sess.NextSeq(), sess.Dropped())
		for {
			frame, err := sess.Recv()
			if err != nil {
				fail(err)
			}
			for _, d := range frame.Deliveries {
				fmt.Printf("doc %d  score %.4f  seq %d\n", d.Doc, d.Score, d.Seq)
			}
			if gaps := sess.Gaps(); gaps > 0 {
				fmt.Printf("  (%d delivery(ies) lost to queue overflow so far; server reports %d dropped)\n",
					gaps, frame.Dropped)
			}
			if frame.Closed {
				fmt.Println("subscriber closed")
				return
			}
		}

	case "feedback":
		fs := flag.NewFlagSet("feedback", flag.ExitOnError)
		user := fs.String("user", "", "subscriber id")
		doc := fs.Int64("doc", -1, "document id")
		relevant := fs.Bool("relevant", true, "judgment")
		parse(fs, rest)
		traceID, err := c.FeedbackTrace(*user, *doc, *relevant, "")
		check(err)
		fmt.Printf("feedback recorded for doc %d\n", *doc)
		if traceID != "" {
			fmt.Printf("trace %s\n", traceID)
		}

	case "profile":
		fs := flag.NewFlagSet("profile", flag.ExitOnError)
		user := fs.String("user", "", "subscriber id")
		parse(fs, rest)
		p, err := c.Profile(*user)
		check(err)
		fmt.Printf("learner %s, %d vector(s)\n", p.Learner, p.Size)
		for i, terms := range p.Vectors {
			fmt.Printf("  #%d: %s\n", i+1, strings.Join(terms, " "))
		}

	case "fetch":
		fs := flag.NewFlagSet("fetch", flag.ExitOnError)
		doc := fs.Int64("doc", -1, "document id")
		parse(fs, rest)
		content, err := c.Fetch(*doc)
		check(err)
		fmt.Println(content)

	case "export":
		fs := flag.NewFlagSet("export", flag.ExitOnError)
		user := fs.String("user", "", "subscriber id")
		out := fs.String("out", "", "file to write the profile to (default stdout)")
		parse(fs, rest)
		check(export(c, *user, *out, os.Stdout))

	case "import":
		fs := flag.NewFlagSet("import", flag.ExitOnError)
		user := fs.String("user", "", "subscriber id")
		in := fs.String("in", "", "file written by export")
		parse(fs, rest)
		check(importFile(c, *user, *in))
		fmt.Printf("imported %s as %s\n", *in, *user)

	case "stats":
		st, err := c.Stats()
		check(err)
		fmt.Printf("published   %d\n", st.Published)
		fmt.Printf("deliveries  %d (dropped %d)\n", st.Deliveries, st.Dropped)
		fmt.Printf("feedbacks   %d\n", st.Feedbacks)
		fmt.Printf("subscribers %d\n", st.Subscribers)
		fmt.Printf("index       %d vectors (%d distinct) over %d terms\n", st.IndexVectors, st.IndexDistinct, st.IndexTerms)

	}
}

// export writes user's profile to the file out, or to stdout when out is
// empty, in the one form importFile reads: the learner's name, a newline,
// then the exported bytes.
func export(c *wire.Client, user, out string, stdout io.Writer) error {
	learner, state, err := c.Export(user)
	if err != nil {
		return err
	}
	blob := append([]byte(learner+"\n"), state...)
	if out == "" {
		_, err := stdout.Write(blob)
		return err
	}
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "exported %s profile of %s (%d bytes) to %s\n", learner, user, len(state), out)
	return err
}

// importFile imports, as user, a profile that export wrote to the file in.
func importFile(c *wire.Client, user, in string) error {
	raw, err := os.ReadFile(in)
	if err != nil {
		return err
	}
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return fmt.Errorf("malformed profile file %s", in)
	}
	return c.Import(user, string(raw[:nl]), raw[nl+1:])
}

func parse(fs *flag.FlagSet, args []string) {
	_ = fs.Parse(args) // ExitOnError
}

func check(err error) {
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mmclient:", err)
	os.Exit(1)
}

// commands are the subcommands main's switch handles.
var commands = []string{"subscribe", "unsubscribe", "publish", "listen", "feedback", "profile", "fetch", "export", "import", "stats"}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: mmclient [-addr host:port] %s [flags]\n", strings.Join(commands, "|"))
	os.Exit(2)
}
