package main

import (
	"math/rand"
	"os"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/benchmarks/bench"
	"repro/internal/benchmarks/redislog"
	"repro/internal/dispatch"
	"repro/internal/explore"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/pmem"
	requests "repro/internal/workload"
)

// Workload sizes. Each repetition of a workload is one complete verdict;
// the timed run repeats it for the requested time.
const (
	// mcCap caps every model-check campaign of mc-table2; most ports
	// exhaust their state space below it.
	mcCap = 3000
	// randomExecs is random-table2's executions per campaign. The ports'
	// own Table 2 budget of 400 misses a P-BwTree row on about 2% of
	// seeds; 1000 matched every row on 1000 seeds.
	randomExecs = 1000
	// redisPrefix requests run before the crash point and redisRequests
	// after it, in one execution with a redisWindow-op trace window.
	redisPrefix   = 2_000
	redisRequests = 25_000
	redisWindow   = 64
	// isolatedExecs is isolated-random's executions per campaign.
	isolatedExecs = 20_000
	// figure2Path is isolated-random's program, relative to the
	// repository root the benchmark runs from.
	figure2Path = "testdata/figure2.pm"
)

// env carries one repetition's settings.
type env struct {
	seed    int64
	workers int
	// budget overrides every campaign's execution budget when positive;
	// the set-up probes use 1.
	budget int
	// obs and probe instrument the traced run; both are nil on timed runs.
	obs   *obs.Observer
	probe *layerProbe
	// inProcess runs isolated-random's campaign through explore.Run
	// instead of dispatch: the traced run's baseline for dispatch overhead.
	inProcess bool
	workerBin string
}

func (e env) execs(n int) int {
	if e.budget > 0 {
		return e.budget
	}
	return n
}

// campaign is one exploration run inside a repetition.
type campaign struct {
	name string
	// port is the Table 2 port the campaign explored; nil elsewhere.
	port *bench.Benchmark
	res  *explore.Result
	// build is the program-construction time.
	build time.Duration
	// dispatched marks a campaign run in worker processes.
	dispatched bool
	// unexposed marks a redis-stream execution whose crash landed before
	// any request had published a log entry: there is nothing for the
	// seeded bug to expose, so the reference verdict is a clean run.
	unexposed bool
}

// workload is one named benchmark workload.
type workload struct {
	name string
	// run executes one repetition and returns its campaigns.
	run func(e env) ([]campaign, error)
	// setupFromReps marks a single-execution workload: a set-up probe
	// with an execution budget of 1 would repeat the whole run, so its
	// set-up time is read from the timed repetitions instead.
	setupFromReps bool
	// matchRows marks random-mode workloads whose buggy campaigns find
	// seed-dependent variants of their port's bugs: their reference is
	// the number of expected rows matched, not the violation key set.
	matchRows bool
}

var workloads = []*workload{
	{name: "mc-table2", run: func(e env) ([]campaign, error) {
		return table2Campaigns(e, explore.ModelCheck, mcCap), nil
	}},
	{name: "random-table2", run: func(e env) ([]campaign, error) {
		return table2Campaigns(e, explore.Random, randomExecs), nil
	}, matchRows: true},
	{name: "redis-stream", run: runRedis, setupFromReps: true, matchRows: true},
	{name: "isolated-random", run: runIsolated},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runCampaign builds one program and explores it in-process.
func runCampaign(e env, name string, port *bench.Benchmark, build func() explore.Program, opt explore.Options) campaign {
	start := time.Now()
	prog := build()
	built := time.Since(start)
	opt.Workers = e.workers
	opt.Obs = e.obs
	opt.Progress = e.probe.progress()
	call := e.probe.begin()
	res := explore.Run(e.probe.wrap(prog), opt)
	e.probe.end(call, "explore.Run", name)
	return campaign{name: name, port: port, res: res, build: built}
}

// table2Campaigns explores the buggy and fixed variant of every Table 2
// port, in an order the seed shuffles.
func table2Campaigns(e env, mode explore.Mode, execs int) []campaign {
	ports := benchmarks.All()
	rand.New(rand.NewSource(e.seed)).Shuffle(len(ports), func(i, j int) { ports[i], ports[j] = ports[j], ports[i] })
	var cs []campaign
	for _, b := range ports {
		for _, v := range []bench.Variant{bench.Buggy, bench.Fixed} {
			cs = append(cs, runCampaign(e, b.Name+"/"+v.String(), b, func() explore.Program { return b.Build(v) },
				explore.Options{Mode: mode, Executions: e.execs(execs), Seed: e.seed}))
		}
	}
	return cs
}

// redisProgram composes the redislog port's exported API into one long
// execution. The server initializes and serves a short request prefix
// before the crash point; the final, crash-free phase replays the log
// the way a restart does and then serves the long stream. Keeping the
// long stream after the crash makes a repetition's work independent of
// where the random crash lands, while the recovery walk still reads the
// prefix's unflushed log entries.
func redisProgram(seed int64, srv *publishCounter) explore.Program {
	prefix := requests.Config{Seed: seed, Ops: redisPrefix, Keys: 4096, ZipfS: 1.2, ReadPct: 50, Threads: 2}
	stream := prefix
	stream.Seed = seed + 1
	stream.Ops = redisRequests
	return &explore.FuncProgram{
		ProgName: "RedisLog-stream",
		PhaseFns: []func(*pmem.World){
			func(w *pmem.World) {
				// The crash-free pilot runs this phase too; only the
				// count of the last run, the explored execution's, is kept.
				srv.published = 0
				srv.Init(w.Thread(0), prefix.Keys)
				requests.Drive(w, prefix, srv)
			},
			func(w *pmem.World) {
				srv.Recover(w.Thread(0))
				requests.Drive(w, stream, srv.Redis)
			},
		},
	}
}

// publishCounter counts the prefix's SET requests that returned, each
// having published its log entry and persisted the log head.
type publishCounter struct {
	*redislog.Redis
	published int
}

func (p *publishCounter) Set(th *pmem.Thread, key, val memmodel.Value, words int) {
	p.Redis.Set(th, key, val, words)
	p.published++
}

func runRedis(e env) ([]campaign, error) {
	srv := &publishCounter{Redis: redislog.New(bench.Buggy)}
	c := runCampaign(e, "RedisLog-stream", redislog.Benchmark(), func() explore.Program { return redisProgram(e.seed, srv) }, explore.Options{
		Mode:       explore.Random,
		Executions: 1,
		Seed:       e.seed,
		Model:      persist.Config{Window: redisWindow},
		// Each request is a bounded burst of operations; 64 per request
		// leaves headroom for the recovery walk.
		OpLimit: (redisPrefix+redisRequests)*64 + 4096,
	})
	// The crash is uniform over the prefix's fences, so about one
	// execution in five hundred crashes before the first SET returns.
	c.unexposed = srv.published == 0
	return []campaign{c}, nil
}

// runIsolated explores testdata/figure2.pm in random mode through the
// dispatch supervisor with one psan-worker process (in-process when
// e.inProcess is set).
func runIsolated(e env) ([]campaign, error) {
	start := time.Now()
	src, err := os.ReadFile(figure2Path)
	if err != nil {
		return nil, err
	}
	parsed, err := lang.Parse(string(src))
	if err != nil {
		return nil, err
	}
	prog := interp.New(figure2Path, parsed)
	built := time.Since(start)
	opt := explore.Options{
		Mode: explore.Random, Executions: e.execs(isolatedExecs), Seed: e.seed,
		Workers: 1, Obs: e.obs,
	}
	c := campaign{name: "figure2", build: built, dispatched: !e.inProcess}
	call := e.probe.begin()
	if e.inProcess {
		opt.Progress = e.probe.progress()
		c.res = explore.Run(e.probe.wrap(prog), opt)
		e.probe.end(call, "explore.Run", c.name)
	} else {
		c.res = dispatch.Run(dispatch.Options{
			Explore: opt, Program: prog, ProgramPath: figure2Path, WorkerBin: e.workerBin,
		})
		e.probe.end(call, "dispatch.Run", c.name)
	}
	return []campaign{c}, nil
}
