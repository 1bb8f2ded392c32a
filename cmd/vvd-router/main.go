// Command vvd-router fronts a sharded vvd-serve cluster: a
// consistent-hash router that spreads link sessions across N backends
// speaking the binary wire protocol (internal/wire), with per-shard
// health checks, bounded in-flight backpressure, and hot add/remove of
// backends.
//
// Usage:
//
//	vvd-serve -stub 1.6ms -wire 127.0.0.1:9991 &
//	vvd-serve -stub 1.6ms -wire 127.0.0.1:9992 &
//	vvd-router -addr :9990 -backends 127.0.0.1:9991,127.0.0.1:9992
//
// The router itself serves the wire protocol, so clients (vvd-load, or
// any wire.Client) cannot tell a router from a single backend — the
// cluster is one big vvd-serve. Every request for a link lands on the
// same shard (consistent hashing by link id over 64 virtual nodes per
// backend); a dead shard's links fail over to their ring successor
// and come home when the shard's health probes recover.
//
// An optional admin endpoint (-admin) serves:
//
//	GET    /shardz            per-shard health, in-flight, error counters (JSON)
//	POST   /shardz?add=ADDR     bring a backend into rotation
//	POST   /shardz?remove=ADDR  take a backend out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vvd/internal/shard"
	"vvd/internal/wire"
)

func main() {
	var (
		addr     = flag.String("addr", ":9990", "wire protocol listen address")
		backends = flag.String("backends", "", "comma-separated backend wire addresses (host:port)")
		inflight = flag.Int("inflight", 128, "max in-flight requests per backend (beyond: shed)")
		health   = flag.Duration("health", time.Second, "health probe interval (0 disables)")
		admin    = flag.String("admin", "", "admin HTTP listen address for /shardz (empty = disabled)")
	)
	flag.Parse()

	cfg := shard.Config{
		MaxInflight:    *inflight,
		HealthInterval: *health,
	}
	if *health == 0 {
		cfg.HealthInterval = -1
	}
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			cfg.Backends = append(cfg.Backends, b)
		}
	}
	if len(cfg.Backends) == 0 {
		fatal(fmt.Errorf("no backends (-backends host:port,host:port,...)"))
	}

	router, err := shard.NewRouter(cfg)
	if err != nil {
		fatal(err)
	}
	server := wire.NewServer(router, wire.ServerConfig{})
	bound, err := server.Listen(*addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("routing %d backends on %s (%d in-flight per shard)\n",
		len(cfg.Backends), bound, *inflight)

	var adminServer *http.Server
	if *admin != "" {
		adminServer = &http.Server{Addr: *admin, Handler: adminHandler(router)}
		go func() {
			fmt.Printf("admin on %s (GET /shardz)\n", *admin)
			if err := adminServer.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fatal(err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\nshutting down...")
	if adminServer != nil {
		_ = adminServer.Close()
	}
	_ = server.Close()
	_ = router.Close()
	for _, s := range router.Status() {
		fmt.Printf("%s: healthy=%v requests=%d errors=%d sheds=%d\n",
			s.Addr, s.Healthy, s.Requests, s.Errors, s.Sheds)
	}
}

// adminHandler exposes the per-shard snapshot and hot membership changes.
func adminHandler(router *shard.Router) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/shardz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			var err error
			switch {
			case r.URL.Query().Get("add") != "":
				err = router.AddBackend(r.URL.Query().Get("add"))
			case r.URL.Query().Get("remove") != "":
				err = router.RemoveBackend(r.URL.Query().Get("remove"))
			default:
				err = fmt.Errorf("POST needs ?add=ADDR or ?remove=ADDR")
			}
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(router.Status())
	})
	return mux
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vvd-router:", err)
	os.Exit(1)
}
