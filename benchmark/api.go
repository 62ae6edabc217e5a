package main

// API surface pin.
//
// Later changes may not edit this directory, so it has to keep compiling
// through the ROADMAP's planned deletions. These are the only names of the
// program the benchmark touches; a change that removes or reshapes one of them
// breaks the benchmark and must say so.
//
// Driven end to end (round.go, workloads.go):
//
//	engine.New, engine.Options{Kind, Nodes, Trees, Seed, Workers, Churn, Faults, Adapt}
//	engine.QueryConfig{ID, SQL, Spec, Algorithm, Opt, Cycles}
//	(*engine.Engine).Submit, Step, Run, Report; its Topo and Nodes fields
//	engine.SeededChurn, engine.ChurnEvent{Epoch, Node, Revive}
//	engine.Report and engine.QueryReport (compared whole; read: Epochs,
//	  AggregateBytes, QueryBytes, SharedMessages, Results, ResultsLost,
//	  PathsRepaired, BaseFallbacks, TreesPatched, TreesRebuilt, Migrations,
//	  MigrationsAborted, LinkRerouted, LinkFallbacks, Queries[].{Algorithm,
//	  State, Results, MeanDelay, TotalMessages, InNetPairs, AtBasePairs})
//	faults.Config{Seed, LinkLoss, LinkFailRate, LinkReviveAfter}
//	costmodel.Params{SigmaS, SigmaT, SigmaST, W}
//	join.Innet{Opts: InnetOptions{Multicast, GroupOpt, EstimateInterval}},
//	  join.Base, join.Naive, join.Yang07, join.Hashed{Label, Router}
//	ght.NewRouter, dht.NewRing
//	workload.Query0, workload.Query1, workload.Rates
//	topology.ModerateRandom, topology.DenseRandom
//
// Probed layer by layer (probes.go):
//
//	topology.Generate, (*Topology).HopsFrom, N, AvgDegree, Neighbors; topology.Base
//	workload.BuildNodes, SpecFromSQL, NewGenerator, (*Generator).Sample;
//	  Spec.{W, Rates, Indexes, EligibleS, SearchMatcher, DynJoin, Groups}
//	query.Rel (query.S, query.T)
//	routing.NewSubstrate, routing.Options{NumTrees}, (*Substrate).ExtendIndexes,
//	  FindTargets, RepairTrees, PathToBase, DepthToBase; routing.NewRepairer,
//	  (*Repairer).Repair; routing.Path and its Reverse
//	join.NewConfig, join.Continuous.Start, join.Stepper.Step, Finish;
//	  join.Result.{TotalBytes, PairPaths, PairJoinNodes}
//	core.PlacePair, costmodel.BestPlacement
//	window.NewState, (*State).AddPair, ArriveAppend, Snapshot, Restore; window.Match
//	sim.NewNetwork, NewSharedNetwork, (*Network).Transfer, SetFaults, Liveness,
//	  Metrics; sim.Metrics.{Drops, Retransmissions, TotalMessages};
//	  sim.TupleBytes, PathEntryBytes, Data, Flow
//	(*topology.Liveness).Fail, Revive, Alive
//	mpo.BuildMulticast, (*MulticastTree).InteriorStateBytes, Edges
//	adapt.New, (*Estimator).ObserveS, ObserveT, EndCycle, Interval
//	faults.NewPlan, (*Plan).BeginEpoch, Link
//
// Deliberately not touched, because the ROADMAP plans to delete or reshape
// them: engine.Options.MemBudget*, Obs, Trace and OnEpoch; join.Config.FailNode;
// the optional stepper interfaces (LossReporter, MemReporter, Adaptive, ...);
// join.InnetOptions.Learn; aspen.Run and the facade; internal/bench,
// internal/experiments, internal/obs and internal/rng.
