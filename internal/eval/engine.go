package eval

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/classify"
	"repro/internal/rewrite"
	"repro/internal/storage"
)

// Strategy selects one of the engines.
type Strategy uint8

const (
	// StrategyNaive is bottom-up full re-evaluation — the independent oracle
	// every other strategy is checked against.
	StrategyNaive Strategy = iota
	// StrategySemiNaive is bottom-up delta evaluation: the round driver on
	// one worker (see SemiNaiveOpts).
	StrategySemiNaive
	// StrategyMagic is the magic-sets rewriting baseline.
	StrategyMagic
	// StrategyState is the generic compiled expansion evaluator.
	StrategyState
	// StrategyClass dispatches on the paper's classification: stable plans
	// for class A formulas (after the Theorem 2/4 transformation when
	// needed), bounded unrolling for bounded formulas, and the generic
	// compiled evaluator for classes C, E and F.
	StrategyClass
	// StrategyParallel is bottom-up delta evaluation with each round's
	// delta fanned out across a worker pool (see ParallelSemiNaiveOpts).
	// Workers share the database read-only through the storage layer's
	// frozen CSR indexes and write into pooled arena-backed buffers.
	StrategyParallel
	// StrategyAuto classifies the system once, compiles the fast path the
	// classification licenses (the transitive-closure frontier kernel, the
	// bounded expansion union, or the parallel engine) and caches the plan
	// per (program, adornment) in DefaultPlanner so repeated queries skip
	// classification and rewriting.
	StrategyAuto
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyNaive:
		return "naive"
	case StrategySemiNaive:
		return "seminaive"
	case StrategyMagic:
		return "magic"
	case StrategyState:
		return "state"
	case StrategyClass:
		return "class"
	case StrategyParallel:
		return "parallel"
	case StrategyAuto:
		return "auto"
	}
	return fmt.Sprintf("Strategy(%d)", uint8(s))
}

// Strategies lists every strategy, for cross-checking loops.
func Strategies() []Strategy {
	return []Strategy{StrategyNaive, StrategySemiNaive, StrategyMagic, StrategyState, StrategyClass, StrategyParallel, StrategyAuto}
}

// Answer evaluates the query over the database with the chosen strategy and
// returns the answer relation (arity = the recursive predicate's).
func Answer(strategy Strategy, sys *ast.RecursiveSystem, q ast.Query, db *storage.Database) (*storage.Relation, Stats, error) {
	return AnswerOpts(strategy, sys, q, db, Opts{})
}

// AnswerOpts is Answer with instrumentation threaded into whichever engine
// the strategy selects: every strategy feeds the same tracer and metrics
// registry through Opts.
func AnswerOpts(strategy Strategy, sys *ast.RecursiveSystem, q ast.Query, db *storage.Database, opts Opts) (*storage.Relation, Stats, error) {
	var engine func(*ast.Program, *storage.Database, Opts) (*storage.Database, Stats, error)
	switch strategy {
	case StrategyNaive:
		engine = NaiveOpts
	case StrategySemiNaive:
		engine = SemiNaiveOpts
	case StrategyParallel:
		engine = ParallelSemiNaiveOpts
	case StrategyMagic:
		return MagicSetsOpts(sys, q, db, opts)
	case StrategyState:
		return StateEvalOpts(sys, q, db, opts)
	case StrategyClass:
		return ClassEvalOpts(sys, q, db, opts)
	case StrategyAuto:
		return DefaultPlanner.AnswerOpts(sys, q, db, opts)
	default:
		return nil, Stats{}, fmt.Errorf("eval: unknown strategy %v", strategy)
	}
	out, st, err := engine(sys.Program(), db, opts)
	if err != nil {
		return nil, st, err
	}
	ans, err := AnswerQuery(out, q)
	return ans, st, err
}

// ClassEvalOpts classifies the system and dispatches to the most specific
// evaluator the paper's analysis licenses; the classification is recorded
// under a "classify" span before dispatch. Like the paper, every evaluator it
// dispatches to assumes the database stores no tuples under the recursive
// predicate itself (the auto planner checks: Plan.over).
func ClassEvalOpts(sys *ast.RecursiveSystem, q ast.Query, db *storage.Database, opts Opts) (*storage.Relation, Stats, error) {
	cls := opts.parent().Child("classify")
	res, err := classify.Classify(sys.Recursive)
	if err != nil {
		cls.End()
		return nil, Stats{}, err
	}
	cls.SetStr("class", res.Class.Code()).End()
	return ClassEvalWithOpts(sys, res, q, db, opts)
}

// ClassEvalWithOpts is ClassEvalOpts with a precomputed classification (so
// callers can amortize the compilation across queries — the paper's
// compiled-query setting).
func ClassEvalWithOpts(sys *ast.RecursiveSystem, res *classify.Result, q ast.Query, db *storage.Database, opts Opts) (*storage.Relation, Stats, error) {
	switch {
	case res.Bounded:
		// Classes B, D and the bounded combinations (Theorems 10, 11):
		// finitely many non-recursive expansions.
		return BoundedEvalOpts(sys, res.RankBound, q, db, opts)
	case res.Stable:
		se, err := NewStableEval(sys, res, db)
		if err != nil {
			return nil, Stats{}, err
		}
		return se.AnswerOpts(q, opts)
	case res.Transformable:
		// Theorem 2/4: unfold to an equivalent stable system, then run the
		// stable plan.
		stableSys, err := rewrite.ToStableClassified(sys, res)
		if err != nil {
			return nil, Stats{}, err
		}
		stableRes, err := classify.Classify(stableSys.Recursive)
		if err != nil {
			return nil, Stats{}, err
		}
		se, err := NewStableEval(stableSys, stableRes, db)
		if err != nil {
			return nil, Stats{}, err
		}
		return se.AnswerOpts(q, opts)
	default:
		// Classes C, E, F: the paper gives no general closed plan; the
		// resolution-graph-driven compiled evaluator is the uniform method.
		return StateEvalOpts(sys, q, db, opts)
	}
}
