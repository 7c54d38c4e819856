package server

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"chameleondb/internal/resp"
)

// render prints a reply in a compact RESP-like form for transcript checks.
func render(r resp.Reply) string {
	switch r.Type {
	case resp.TypeError:
		return "-" + string(r.Str)
	case resp.TypeSimpleString:
		return "+" + string(r.Str)
	case resp.TypeInt:
		return fmt.Sprintf(":%d", r.Int)
	case resp.TypeArray:
		parts := make([]string, len(r.Array))
		for i, e := range r.Array {
			parts[i] = render(e)
		}
		return fmt.Sprintf("*%d[%s]", len(r.Array), strings.Join(parts, " "))
	}
	if r.Null {
		return "$-1"
	}
	return "$" + string(r.Str)
}

// TestObservableSurface pins what clients and scrapers see of the command
// set: the per-command counter and wire-histogram names, the INFO
// commandstats and latencystats lines after a fixed command mix, COMMAND's
// empty array, and the refusal errors. Changing how commands are described
// inside the server must leave all of it byte-identical.
func TestObservableSurface(t *testing.T) {
	s, addr := startServer(t, nil, Config{})
	c := dialT(t, addr)

	transcript := []struct {
		args []string
		want string
	}{
		{[]string{"SET", "a", "1"}, "+OK"},
		{[]string{"set", "b", "2"}, "+OK"},
		{[]string{"GET", "a"}, "$1"},
		{[]string{"GET", "missing"}, "$-1"},
		{[]string{"MGET", "a", "missing"}, "*2[$1 $-1]"},
		{[]string{"MSET", "c", "3", "d", "4"}, "+OK"},
		{[]string{"DEL", "c", "missing"}, ":1"},
		{[]string{"EXISTS", "a", "b", "c"}, ":2"},
		{[]string{"INCR", "n"}, ":1"},
		{[]string{"INCRBY", "n", "5"}, ":6"},
		{[]string{"PING"}, "+PONG"},
		{[]string{"COMMAND"}, "*0[]"},
		{[]string{"ECHO", "x"}, "-ERR unknown command 'ECHO'"},
		{[]string{"GET"}, "-ERR wrong number of arguments for 'get' command"},
		{[]string{"SLAVEOF", "NO", "ONE"}, "-ERR replication is not enabled on this server"},
		{[]string{"WAIT", "0", "0"}, ":0"},
		{[]string{"FLUSHALL"}, "+OK"},
		{[]string{"MULTI"}, "+OK"},
		{[]string{"SET", "e", "5"}, "+QUEUED"},
		{[]string{"GET", "e"}, "+QUEUED"},
		{[]string{"EXEC"}, "*2[+OK $5]"},
		{[]string{"MULTI"}, "+OK"},
		{[]string{"FLUSHALL"}, "-ERR flushall is not allowed in transactions"},
		{[]string{"QUIT"}, "-ERR quit is not allowed in transactions"},
		{[]string{"nosuch"}, "-ERR unknown command 'nosuch'"},
		{[]string{"EXEC"}, "-EXECABORT Transaction discarded because of previous errors."},
		{[]string{"MULTI"}, "+OK"},
		{[]string{"DISCARD"}, "+OK"},
		{[]string{"INFO", "server"}, ""},
	}
	for _, step := range transcript {
		rep, err := c.DoStrings(step.args...)
		if err != nil {
			t.Fatalf("%v: %v", step.args, err)
		}
		if step.want != "" && render(rep) != step.want {
			t.Fatalf("%v = %s, want %s", step.args, render(rep), step.want)
		}
	}
	// SCAN's page depends on hash order; only its shape is pinned.
	if rep, err := c.DoStrings("SCAN", "0", "COUNT", "100"); err != nil || rep.Type != resp.TypeArray || len(rep.Array) != 2 {
		t.Fatalf("SCAN = %+v, %v", rep, err)
	}

	rep, err := c.DoStrings("INFO", "commandstats")
	if err != nil {
		t.Fatal(err)
	}
	wantStats := "# Commandstats\r\n" +
		"cmdstat_get:calls=4\r\n" +
		"cmdstat_set:calls=3\r\n" +
		"cmdstat_del:calls=1\r\n" +
		"cmdstat_exists:calls=1\r\n" +
		"cmdstat_ping:calls=1\r\n" +
		"cmdstat_info:calls=1\r\n" +
		"cmdstat_flushall:calls=2\r\n" +
		"cmdstat_quit:calls=1\r\n" +
		"cmdstat_command:calls=1\r\n" +
		"cmdstat_mget:calls=1\r\n" +
		"cmdstat_mset:calls=1\r\n" +
		"cmdstat_incr:calls=1\r\n" +
		"cmdstat_incrby:calls=1\r\n" +
		"cmdstat_scan:calls=1\r\n" +
		"cmdstat_multi:calls=3\r\n" +
		"cmdstat_exec:calls=2\r\n" +
		"cmdstat_discard:calls=1\r\n" +
		"cmdstat_replicaof:calls=1\r\n" +
		"cmdstat_wait:calls=1\r\n" +
		"cmdstat_unknown:calls=2\r\n" +
		"\r\n"
	if got := string(rep.Str); got != wantStats {
		t.Fatalf("INFO commandstats =\n%q\nwant\n%q", got, wantStats)
	}

	rep, err = c.DoStrings("INFO", "latencystats")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(rep.Str), "\r\n\r\n"), "\r\n")
	wantLat := []string{
		"# Latencystats",
		"wire_ns_get:count=4,p50=",
		"wire_ns_set:count=3,p50=",
		"wire_ns_del:count=1,p50=",
		"wire_ns_scan:count=1,p50=",
		"wire_ns_other:count=22,p50=",
	}
	if len(lines) != len(wantLat) {
		t.Fatalf("INFO latencystats lines = %q, want prefixes %q", lines, wantLat)
	}
	for i, want := range wantLat {
		if !strings.HasPrefix(lines[i], want) {
			t.Fatalf("latencystats line %d = %q, want prefix %q", i, lines[i], want)
		}
	}

	snap := s.Registry().Snapshot()
	var names []string
	for name := range snap.Counters {
		if strings.HasPrefix(name, "server_cmd_") {
			names = append(names, name)
		}
	}
	for name := range snap.Histograms {
		if strings.HasPrefix(name, "server_wire_ns_") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	wantNames := []string{
		"server_cmd_command", "server_cmd_del", "server_cmd_discard",
		"server_cmd_exec", "server_cmd_exists", "server_cmd_flushall",
		"server_cmd_get", "server_cmd_incr", "server_cmd_incrby",
		"server_cmd_info", "server_cmd_mget", "server_cmd_mset",
		"server_cmd_multi", "server_cmd_ping", "server_cmd_quit",
		"server_cmd_replicaof", "server_cmd_scan", "server_cmd_set",
		"server_cmd_unknown", "server_cmd_wait",
		"server_wire_ns_del", "server_wire_ns_get", "server_wire_ns_other",
		"server_wire_ns_scan", "server_wire_ns_set",
	}
	if strings.Join(names, " ") != strings.Join(wantNames, " ") {
		t.Fatalf("metric names =\n%v\nwant\n%v", names, wantNames)
	}

	// Space limits: INFO storage (capacities of core.TestConfig) and the
	// registry gauges /metrics exports under the same names.
	rep, err = c.DoStrings("INFO", "storage")
	if err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSuffix(string(rep.Str), "\r\n\r\n"), "\r\n")
	wantStorage := []string{
		"# Storage",
		"arena_capacity_bytes:67108864",
		"arena_in_use_bytes:",
		"arena_resident_bytes:",
		"log_capacity_bytes:33554432",
		"log_live_bytes:",
	}
	if len(lines) != len(wantStorage) {
		t.Fatalf("INFO storage lines = %q, want prefixes %q", lines, wantStorage)
	}
	for i, want := range wantStorage {
		if !strings.HasPrefix(lines[i], want) {
			t.Fatalf("storage line %d = %q, want prefix %q", i, lines[i], want)
		}
	}
	gauges := s.Registry().Snapshot().Gauges
	for _, name := range storageGauges {
		if _, ok := gauges[name]; !ok {
			t.Fatalf("gauge %s missing from the registry", name)
		}
	}
	if gauges["arena_in_use_bytes"] <= 0 || gauges["arena_resident_bytes"] <= 0 || gauges["log_live_bytes"] <= 0 {
		t.Fatalf("storage gauges not live after writes: %v", gauges)
	}
}
