package main

import (
	"flag"
	"log/slog"
	"os"
	"runtime"
	"runtime/debug"

	"hostprof/internal/obs/tracer"
)

// logFlags holds the shared -log-format / -log-level flags, so every
// subcommand that logs does so through one leveled, trace-aware
// structured logger (`-log-format json` yields machine-parseable
// output end to end).
type logFlags struct {
	format *string
	level  *string
}

func addLogFlags(fs *flag.FlagSet) logFlags {
	return logFlags{
		format: fs.String("log-format", "text", "log output format: text or json"),
		level:  fs.String("log-level", "info", "log verbosity: debug, info, warn or error"),
	}
}

// buildAttrs names the running build on serve's and gateway's
// listening line: the Go version and, for a binary built from a VCS
// checkout, its revision.
func buildAttrs() []any {
	attrs := []any{slog.String("go_version", runtime.Version())}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				attrs = append(attrs, slog.String("vcs_revision", kv.Value))
			}
		}
	}
	return attrs
}

// setup installs the process-default slog logger per the parsed flags.
func (l logFlags) setup() error {
	lg, err := tracer.NewLogger(os.Stderr, *l.format, *l.level)
	if err != nil {
		return err
	}
	slog.SetDefault(lg)
	return nil
}
