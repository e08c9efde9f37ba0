// Command certsql is an interactive SQL shell over an in-memory TPC-H
// instance with nulls, offering both standard SQL evaluation and the
// certain-answer mode of the paper.
//
// Usage:
//
//	certsql -sf 0.001 -nullrate 0.03
//
// Then type SQL terminated by a semicolon. Write `SELECT CERTAIN …` to
// get only certain answers (the paper's proposed syntax) or
// `SELECT POSSIBLE …` for the potential-answer over-approximation.
// Shell commands:
//
//	\rewrite <sql>;   show the SQL text of the certain translation Q+
//	\explain <sql>;   show the executed plan with strategies and costs
//	\plan <sql>;      show the cost-based planner's EXPLAIN (rules,
//	                  hints, cost estimates) without executing
//	\schema;          list the tables
//	\queries;         print the paper's Q1–Q4
//	\full;            print their aggregate-bearing full forms
//	\q                quit
//
// One-shot mode: -query runs a single statement and exits; -tpchq N
// runs appendix query QN with parameters drawn from -seed. With
// -remote http://host:port the statement is sent to a running certsqld
// instead of evaluated locally (see cmd/certsqld), exercising the
// serving layer's plan cache; -param name=value binds $name parameters
// (repeatable), and -mode forces certain/possible/standard evaluation.
// -explain prints the planner's EXPLAIN for the statement instead of
// executing it (local evaluation only); -naive-planner disables the
// cost-based planner and runs the paper-faithful naive plans, which by
// the planner's contract return byte-identical results.
//
// Resource governance: -timeout bounds each query's evaluation,
// -max-rows and -max-mem bound its intermediate results, and -degrade
// lets over-budget potential-answer queries fall back to their certain
// answers (flagged in the output) instead of failing. SIGINT/SIGTERM
// cancel the running query through the same context machinery, so
// Ctrl-C in -query mode yields the documented exit code instead of a
// killed process.
//
// Exit codes (for -query / -tpchq mode):
//
//	0  success
//	1  operational error
//	2  bad flags or usage
//	3  a resource budget was exceeded (raise -max-rows / -max-mem, or
//	   pass -degrade to accept certain answers for SELECT queries)
//	4  the -timeout deadline expired or the query was interrupted
//
// Subcommands:
//
//	certsql fsck <data-dir>   verify a certsqld -data-dir directory
//	                          offline: every checksum, cross-reference
//	                          and WAL record, reported as file:offset
//	                          diagnostics. Exit 0 clean, 1 findings,
//	                          2 unreadable.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"certsql"
	"certsql/internal/guard"
	"certsql/internal/persist"
	"certsql/internal/server/client"
	"certsql/internal/tpch"
)

// params collects repeated -param name=value flags.
type paramFlags map[string]any

func (p paramFlags) String() string { return fmt.Sprint(map[string]any(p)) }

func (p paramFlags) Set(s string) error {
	name, raw, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=value, got %q", s)
	}
	if i, err := strconv.ParseInt(raw, 10, 64); err == nil {
		p[name] = i
	} else if f, err := strconv.ParseFloat(raw, 64); err == nil {
		p[name] = f
	} else {
		p[name] = raw
	}
	return nil
}

func main() {
	// Subcommand dispatch happens before flag parsing so `certsql fsck
	// <dir>` keeps its own small flag surface.
	if len(os.Args) > 1 && os.Args[1] == "fsck" {
		os.Exit(runFsck(os.Args[2:]))
	}
	var (
		sf       = flag.Float64("sf", 0.001, "TPC-H scale factor")
		nullRate = flag.Float64("nullrate", 0.03, "null rate for nullable attributes")
		seed     = flag.Int64("seed", 1, "random seed")
		query    = flag.String("query", "", "run one query and exit (instead of the interactive shell)")
		tpchq    = flag.Int("tpchq", 0, "run appendix query QN (1-4) with seeded parameters and exit")
		mode     = flag.String("mode", "", "force evaluation mode: certain, possible, or standard")
		remote   = flag.String("remote", "", "send queries to a running certsqld at this base URL instead of evaluating locally")
		maxRows  = flag.Int("maxrows", 50, "maximum result rows to print")
		dataDir  = flag.String("data", "", "load the instance from a directory of CSV files (as written by tpchgen) instead of generating")
		par      = flag.Int("parallelism", 0, "executor worker count (0 = GOMAXPROCS, 1 = sequential); results are identical at any setting")
		timeout  = flag.Duration("timeout", 0, "per-query evaluation deadline (0 = none)")
		rowBudg  = flag.Int("max-rows", 0, "row budget for intermediate results (0 = default 4M, negative = unlimited)")
		memBudg  = flag.Int64("max-mem", 0, "estimated-bytes memory budget for intermediate results (0 = unlimited)")
		degrade  = flag.Bool("degrade", false, "when a potential-answer query exceeds a budget, return its certain answers (flagged) instead of failing")
		explain  = flag.Bool("explain", false, "print the cost-based planner's EXPLAIN for -query/-tpchq instead of executing (local only)")
		naive    = flag.Bool("naive-planner", false, "disable the cost-based planner; run the paper-faithful naive plans")
	)
	params := paramFlags{}
	flag.Var(params, "param", "bind $name (repeatable): -param nation=FRANCE -param supp_key=7")
	flag.Parse()

	// SIGINT/SIGTERM flow into every query's evaluation context, so an
	// interrupt surfaces as guard.ErrCanceled (exit code 4 in one-shot
	// mode) instead of killing the process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	opts := certsql.Options{
		Parallelism:  *par,
		MaxRows:      *rowBudg,
		MaxMemBytes:  *memBudg,
		Degrade:      *degrade,
		NaivePlanner: *naive,
	}
	sh := shell{ctx: ctx, maxRows: *maxRows, opts: opts, timeout: *timeout, mode: *mode}

	stmt, stmtParams := *query, map[string]any(params)
	if *tpchq != 0 {
		if *tpchq < 1 || *tpchq > len(tpch.AllQueries) {
			fmt.Fprintf(os.Stderr, "certsql: -tpchq wants 1..%d\n", len(tpch.AllQueries))
			os.Exit(2)
		}
		if stmt != "" {
			fmt.Fprintln(os.Stderr, "certsql: -query and -tpchq are mutually exclusive")
			os.Exit(2)
		}
		q := tpch.AllQueries[*tpchq-1]
		stmt = q.SQL()
		if len(stmtParams) == 0 {
			sz := tpch.Config{ScaleFactor: *sf}.Sizes()
			stmtParams = q.Params(rand.New(rand.NewSource(*seed)), sz)
		}
	}

	if *remote != "" {
		if stmt == "" {
			fmt.Fprintln(os.Stderr, "certsql: -remote needs -query or -tpchq")
			os.Exit(2)
		}
		if *explain {
			fmt.Fprintln(os.Stderr, "certsql: -explain plans locally and cannot be combined with -remote")
			os.Exit(2)
		}
		sh.remote = client.New(*remote)
		if err := sh.executeRemote(stmt, stmtParams); err != nil {
			fmt.Fprintln(os.Stderr, "certsql:", err)
			os.Exit(exitCode(err))
		}
		return
	}

	var db *certsql.DB
	if *dataDir != "" {
		fmt.Fprintf(os.Stderr, "loading TPC-H instance from %s...\n", *dataDir)
		var err error
		db, err = certsql.OpenTPCHDir(*dataDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "certsql:", err)
			os.Exit(1)
		}
	} else {
		fmt.Fprintf(os.Stderr, "generating TPC-H instance (sf=%g, null rate=%g, seed=%d)...\n", *sf, *nullRate, *seed)
		db = certsql.OpenTPCH(certsql.TPCHConfig{ScaleFactor: *sf, Seed: *seed, NullRate: *nullRate})
	}
	fmt.Fprintf(os.Stderr, "ready: %d nulls; type \\q to quit, SELECT CERTAIN ... for certain answers\n", db.NullCount())

	if stmt != "" {
		sh.params = stmtParams
		if *explain {
			stmt = `\plan ` + stmt
		}
		if err := sh.execute(db, stmt); err != nil {
			fmt.Fprintln(os.Stderr, "certsql:", err)
			os.Exit(exitCode(err))
		}
		return
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	fmt.Print("certsql> ")
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && (trimmed == `\q` || trimmed == "quit" || trimmed == "exit") {
			return
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if !strings.Contains(line, ";") {
			fmt.Print("      -> ")
			continue
		}
		stmt := strings.TrimSuffix(strings.TrimSpace(buf.String()), ";")
		buf.Reset()
		if err := sh.execute(db, stmt); err != nil {
			fmt.Println("error:", err)
		}
		fmt.Print("certsql> ")
		if ctx.Err() != nil {
			return
		}
	}
}

// runFsck verifies a certsqld data directory offline and prints each
// problem as a file:offset diagnostic. Exit codes: 0 the directory is
// clean, 1 fsck found problems (even recoverable ones — the point of
// running fsck is to know), 2 the directory could not be examined.
func runFsck(args []string) int {
	fs := flag.NewFlagSet("certsql fsck", flag.ContinueOnError)
	quiet := fs.Bool("q", false, "print findings only, no summary")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: certsql fsck [-q] <data-dir>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	rep, err := persist.Fsck(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "certsql fsck:", err)
		return 2
	}
	if !*quiet {
		fmt.Printf("%s: version %d (checkpoint %d + %d wal records), %d tables, %d rows verified\n",
			rep.Dir, rep.Version, rep.Checkpoint, rep.WALRecords, rep.Tables, rep.Rows)
		for _, o := range rep.Orphans {
			fmt.Printf("%s: orphan (unreferenced; swept at next open)\n", o)
		}
	}
	for _, f := range rep.Findings {
		fmt.Println(f)
	}
	if rep.Clean() {
		if !*quiet {
			fmt.Println("clean")
		}
		return 0
	}
	if rep.Healthy() {
		fmt.Println("recoverable damage only: open will repair it")
	} else {
		fmt.Println("unrecoverable damage: open will refuse this directory")
	}
	return 1
}

// exitCode maps the guard error taxonomy onto the documented exit codes.
func exitCode(err error) int {
	switch {
	case errors.Is(err, guard.ErrRowBudget), errors.Is(err, guard.ErrMemBudget),
		errors.Is(err, guard.ErrCostBudget), errors.Is(err, guard.ErrBudget):
		return 3
	case errors.Is(err, guard.ErrCanceled), errors.Is(err, guard.ErrDeadline):
		return 4
	default:
		return 1
	}
}

// shell carries the per-invocation display and governance settings.
type shell struct {
	ctx     context.Context
	maxRows int
	opts    certsql.Options
	timeout time.Duration
	mode    string
	params  map[string]any
	remote  *client.Client
}

// queryCtx derives the evaluation context for one statement: the
// -timeout deadline applies per query (so an interactive session
// survives an over-long statement), layered on the signal context so
// Ctrl-C cancels promptly.
func (sh *shell) queryCtx() (context.Context, context.CancelFunc) {
	base := sh.ctx
	if base == nil {
		base = context.Background()
	}
	if sh.timeout > 0 {
		return context.WithTimeout(base, sh.timeout)
	}
	return context.WithCancel(base)
}

// executeRemote runs one statement against a certsqld instance.
func (sh *shell) executeRemote(stmt string, params map[string]any) error {
	ctx, cancel := sh.queryCtx()
	defer cancel()
	ropts := client.QueryOptions{Degrade: sh.opts.Degrade}
	if sh.opts.MaxRows > 0 {
		ropts.MaxRows = sh.opts.MaxRows
	}
	if sh.opts.MaxMemBytes > 0 {
		ropts.MaxMemBytes = sh.opts.MaxMemBytes
	}
	if sh.timeout > 0 {
		ropts.TimeoutMillis = sh.timeout.Milliseconds()
	}
	res, err := sh.remote.Query(ctx, stmt, params, sh.mode, ropts)
	if err != nil {
		return err
	}
	mode := "sql"
	switch {
	case res.Certain:
		mode = "certain"
	case res.Possible:
		mode = "possible"
	}
	if res.Degraded {
		mode += ", DEGRADED"
	}
	fmt.Printf("-- %d rows (%s evaluation, remote v%d, cache hits=%d misses=%d)\n",
		len(res.Rows), mode, res.Version, res.Stats.PlanCacheHits, res.Stats.PlanCacheMisses)
	for _, w := range res.Warnings {
		fmt.Printf("-- warning [%s]: %s\n", w.Code, w.Message)
	}
	if len(res.Columns) > 0 {
		fmt.Println("   " + strings.Join(res.Columns, " | "))
	}
	for i, row := range res.SortedStrings() {
		if i >= sh.maxRows {
			fmt.Printf("   ... (%d more)\n", len(res.Rows)-sh.maxRows)
			break
		}
		fmt.Println("   " + row)
	}
	return nil
}

func (sh *shell) execute(db *certsql.DB, stmt string) error {
	maxRows, opts := sh.maxRows, sh.opts
	stmt = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(stmt), ";"))
	switch {
	case stmt == `\schema`:
		for _, name := range []string{"region", "nation", "supplier", "part", "partsupp", "customer", "orders", "lineitem"} {
			n, err := db.TableLen(name)
			if err != nil {
				return err
			}
			fmt.Printf("  %-10s %8d rows\n", name, n)
		}
		return nil

	case strings.HasPrefix(stmt, `\rewrite `):
		out, err := db.Rewrite(strings.TrimPrefix(stmt, `\rewrite `), nil)
		if err != nil {
			return err
		}
		fmt.Println(out)
		return nil

	case strings.HasPrefix(stmt, `\explain `):
		out, err := db.Explain(strings.TrimPrefix(stmt, `\explain `), nil, opts)
		if err != nil {
			return err
		}
		fmt.Println(out)
		return nil

	case strings.HasPrefix(stmt, `\plan `):
		text := strings.TrimPrefix(stmt, `\plan `)
		if sh.mode != "" {
			var err error
			text, err = certsql.WithMode(text, sh.mode)
			if err != nil {
				return err
			}
		}
		out, err := db.ExplainPlan(text, sh.params, opts)
		if err != nil {
			return err
		}
		fmt.Println(out)
		return nil

	case stmt == `\queries`:
		for _, q := range tpch.AllQueries {
			fmt.Printf("-- %s\n%s\n\n", q, strings.TrimSpace(q.SQL()))
		}
		return nil

	case stmt == `\full`:
		for _, q := range tpch.AllQueries {
			fmt.Printf("-- %s (aggregate-bearing full form; standard mode only)\n%s\n\n", q, strings.TrimSpace(q.FullSQL()))
		}
		return nil

	case stmt == "":
		return nil
	}

	if sh.mode != "" {
		var err error
		stmt, err = certsql.WithMode(stmt, sh.mode)
		if err != nil {
			return err
		}
	}
	ctx, cancel := sh.queryCtx()
	defer cancel()
	res, err := db.QueryWithOptionsContext(ctx, stmt, sh.params, opts)
	if err != nil {
		return err
	}
	mode := "sql"
	switch {
	case res.Certain:
		mode = "certain"
	case res.Possible:
		mode = "possible"
	}
	if res.Degraded {
		mode += ", DEGRADED"
	}
	fmt.Printf("-- %d rows (%s evaluation)\n", res.Len(), mode)
	for _, w := range res.Warnings {
		fmt.Printf("-- warning [%s]: %s\n", w.Code, w.Message)
	}
	if len(res.Columns) > 0 {
		fmt.Println("   " + strings.Join(res.Columns, " | "))
	}
	for i, row := range res.SortedStrings() {
		if i >= maxRows {
			fmt.Printf("   ... (%d more)\n", res.Len()-maxRows)
			break
		}
		fmt.Println("   " + row)
	}
	return nil
}
