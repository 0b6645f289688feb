package main

import (
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
)

// Sampling rates -pprof switches on. They exist only so that
// /debug/pprof/mutex and /debug/pprof/block have content, so a process
// started without -pprof pays for no sampling it never serves.
const (
	pprofMutexFraction = 5      // sample 1/5 of mutex contention events
	pprofBlockRate     = 10_000 // one blocking sample per 10µs blocked
)

// withPprof is the one way to profile a running hostprof: when enabled
// it mounts net/http/pprof under /debug/pprof/ in front of h (the index
// also serves every named profile — heap, allocs, mutex, block,
// goroutine, threadcreate) and turns on mutex and block sampling.
// Disabled, it returns h and leaves the runtime untouched.
func withPprof(enabled bool, h http.Handler) http.Handler {
	if !enabled {
		return h
	}
	runtime.SetMutexProfileFraction(pprofMutexFraction)
	runtime.SetBlockProfileRate(pprofBlockRate)
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	slog.Info("profiling: GET /debug/pprof/ (incl. heap/allocs/mutex/block/goroutine)")
	return mux
}
