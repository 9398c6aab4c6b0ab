package main

import "alewife/internal/bench"

// declared is a metric the benchmark declares in BENCHMARK.json.
type declared struct{ name, unit string }

// endToEnd are the metrics an untraced run reports on every workload.
var endToEnd = []declared{
	{"setup_s", "s"},
	{"eval_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports on every workload; a
// layer the workload does not exercise reads 0.
var perLayer = func() []declared {
	var d []declared
	for _, o := range owners {
		d = append(d, declared{o, "ratio"})
	}
	for _, k := range rtKinds {
		d = append(d, declared{k, "ratio"})
	}
	d = append(d,
		declared{"gc.cycles", "count"},
		declared{"gc.cpu_s", "s"},
		declared{"alloc.bytes", "bytes"},
		declared{"alloc.objects", "count"},
		declared{"sched.wait_p50_us", "us"},
		declared{"sched.wait_p99_us", "us"},
		declared{"stack.bytes", "bytes"},
		declared{"machine.new_s", "s"},
	)
	for _, e := range bench.Experiments() {
		d = append(d, declared{"bench." + e.ID + "_s", "s"})
	}
	d = append(d,
		declared{"stress.generate_s", "s"},
		declared{"stress.execute_s", "s"},
		declared{"explore.explore_s", "s"},
		declared{"stress.ops", "count"},
		declared{"stress.sim_cycles", "cycles"},
		declared{"cache.hit_ratio", "ratio"},
		declared{"proto.messages", "count"},
		declared{"proto.invalidations", "count"},
		declared{"dir.limitless_overflows", "count"},
		declared{"net.packets", "count"},
		declared{"net.packet_cycles_mean", "cycles"},
		declared{"cmmu.msgs_sent", "count"},
		declared{"rel.retransmits", "count"},
		declared{"rel.timeouts", "count"},
		declared{"rel.goodput_ratio", "ratio"},
		declared{"explore.runs", "count"},
		declared{"explore.choice_points", "count"},
		declared{"explore.choices_per_run", "count"},
		declared{"explore.dedup_hits_per_run", "count"},
		declared{"explore.sleep_prunes", "count"},
		declared{"trace.overhead_ratio", "ratio"},
	)
	return d
}()
