package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"blendhouse/internal/server"
)

// TestUnknownModeExits2 runs main in a child process with a mistyped
// mode. flag.Parse stops at the first non-flag, so without the check
// the child would ignore -data and open a shell on ./bhdata.
func TestUnknownModeExits2(t *testing.T) {
	if args := os.Getenv("BH_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"blendhouse"}, strings.Fields(args)...)
		main()
		return
	}
	for _, args := range []string{"sevre -data x", "coordinate -shards a:1,b:2", "backup -data x", "-e SELECT stray"} {
		t.Run(args, func(t *testing.T) {
			dir := t.TempDir()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestUnknownModeExits2$")
			cmd.Dir = dir
			cmd.Env = append(os.Environ(), "BH_MAIN_ARGS="+args)
			cmd.Stdin = strings.NewReader("SHOW TABLES;\n")
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit: %v, want status 2; output:\n%s", err, out)
			}
			if !strings.Contains(string(out), "modes: serve;") {
				t.Errorf("output does not list the modes:\n%s", out)
			}
			for _, d := range []string{"bhdata", "x"} {
				if _, err := os.Stat(filepath.Join(dir, d)); err == nil {
					t.Errorf("a data directory %q was created", d)
				}
			}
		})
	}
}

// TestRejectedSetIsSession: the shell labels a rejected SET with the
// class the server answers it with (400 SESSION), not "internal".
func TestRejectedSetIsSession(t *testing.T) {
	sess := &session{vars: server.NewSession(0)}
	for _, stmt := range []string{"SET allow_partial = on", "SET batch = maybe", "SET nothing"} {
		err := sess.runStatement(stmt)
		if err == nil {
			t.Fatalf("%s: accepted", stmt)
		}
		got := classifyError(err)
		if !strings.HasPrefix(got, "session: ") || strings.HasPrefix(got, "session: session:") {
			t.Errorf("%s: shell prints %q, want one \"session: \" prefix", stmt, got)
		}
	}
}
