(* Test runner: one alcotest suite per library module. *)

let () =
  Alcotest.run "rumor"
    [
      ("prob.rng", Test_rng.suite);
      ("prob.dist", Test_dist.suite);
      ("prob.stats", Test_stats.suite);
      ("prob.regress", Test_regress.suite);
      ("prob.fenwick", Test_fenwick.suite);
      ("graph.core", Test_graph.suite);
      ("graph.gen_basic", Test_gen_basic.suite);
      ("graph.gen_paper", Test_gen_paper.suite);
      ("graph.gen_random", Test_gen_random.suite);
      ("graph.algo", Test_algo.suite);
      ("graph.io", Test_graph_io.suite);
      ("prob.linalg", Test_linalg.suite);
      ("graph.hitting", Test_hitting.suite);
      ("graph.spectral", Test_spectral.suite);
      ("agents.placement", Test_placement.suite);
      ("agents.walk", Test_walk.suite);
      ("protocols.run_result", Test_run_result.suite);
      ("protocols.traffic", Test_traffic.suite);
      ("protocols.push", Test_push.suite);
      ("protocols.push_pull", Test_push_pull.suite);
      ("protocols.visit_exchange", Test_visit_exchange.suite);
      ("protocols.meet_exchange", Test_meet_exchange.suite);
      ("protocols.combined", Test_combined.suite);
      ("protocols.coupling", Test_coupling.suite);
      ("des.event_queue", Test_event_queue.suite);
      ("des.calendar_queue", Test_calendar_queue.suite);
      ("protocols.async_push", Test_async_push.suite);
      ("protocols.async_meet_exchange", Test_async_meet_exchange.suite);
      ("protocols.tweaked_visit_exchange", Test_tweaked_visit_exchange.suite);
      ("protocols.sparse_walkers", Test_sparse_walkers.suite);
      ("protocols.engine", Test_engine.suite);
      ("protocols.sync_oracle", Test_sync_oracle.suite);
      ("protocols.async_engine", Test_async_engine.suite);
      ("protocols.golden", Test_golden.suite);
      ("sim.protocol", Test_protocol.suite);
      ("sim.graph_spec", Test_graph_spec.suite);
      ("par.pool", Test_par.suite);
      ("sim.replicate", Test_replicate.suite);
      ("sim.table", Test_table.suite);
      ("sim.sparkline", Test_sparkline.suite);
      ("sim.sweep", Test_sweep.suite);
      ("sim.experiments", Test_experiments.suite);
      ("sim.invariants", Test_invariants.suite);
      ("sim.curve_stats", Test_curve_stats.suite);
      ("obs.instrument", Test_obs.suite);
      ("obs.trace", Test_trace.suite);
      ("obs.analysis", Test_report.suite);
      ("tools.lint", Test_lint.suite);
    ]
