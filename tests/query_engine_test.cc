// Differential tests for the query engine (logic/bytecode.cc, logic/cq.cc,
// the compiled FO path of logic/fo.cc, relational/relation.cc) and the
// execution-tree memoization (sws/execution.cc): the optimized paths must
// be observationally identical to the naive baselines on randomized
// workloads, and the memo/index caches must invalidate correctly under
// mutation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "logic/cq.h"
#include "logic/fo.h"
#include "models/peer.h"
#include "models/sirup_sws.h"
#include "models/travel.h"
#include "relational/database.h"
#include "relational/relation.h"
#include "sws/execution.h"
#include "sws/generator.h"
#include "sws/pl_sws.h"
#include "sws/sws.h"

namespace sws {
namespace {

using logic::Atom;
using logic::Comparison;
using logic::ConjunctiveQuery;
using logic::Term;
using rel::Database;
using rel::Relation;
using rel::Tuple;
using rel::Value;

// ---------------------------------------------------------------------------
// Random CQ workloads: small domains force dense joins, repeated
// variables, and empty results with roughly equal probability.
// ---------------------------------------------------------------------------

struct RandomCq {
  ConjunctiveQuery query;
  Database db;
};

class CqFuzzer {
 public:
  explicit CqFuzzer(uint64_t seed) : rng_(seed) {}

  RandomCq Next() {
    RandomCq out;
    const int num_relations = Int(1, 3);
    std::vector<size_t> arities;
    for (int r = 0; r < num_relations; ++r) {
      size_t arity = static_cast<size_t>(Int(1, 3));
      arities.push_back(arity);
      Relation rel(arity);
      const int tuples = Int(0, 12);
      for (int t = 0; t < tuples; ++t) {
        Tuple tuple;
        for (size_t c = 0; c < arity; ++c) tuple.push_back(RandomValue());
        rel.Insert(std::move(tuple));
      }
      out.db.Set("R" + std::to_string(r), std::move(rel));
    }

    const int num_atoms = Int(1, 4);
    std::vector<Atom> body;
    int max_var = Int(1, 5);  // small pools force shared variables
    for (int a = 0; a < num_atoms; ++a) {
      int r = Int(0, num_relations - 1);
      Atom atom;
      atom.relation = "R" + std::to_string(r);
      for (size_t c = 0; c < arities[static_cast<size_t>(r)]; ++c) {
        if (Int(0, 4) == 0) {
          atom.args.push_back(Term::Const(RandomValue()));
        } else {
          atom.args.push_back(Term::Var(Int(0, max_var)));
        }
      }
      body.push_back(std::move(atom));
    }
    // Head: a random subset of the body's variables plus maybe a constant.
    std::set<int> body_vars;
    for (const Atom& a : body) {
      for (const Term& t : a.args) {
        if (t.is_var()) body_vars.insert(t.var());
      }
    }
    std::vector<Term> head;
    for (int v : body_vars) {
      if (Int(0, 2) == 0) head.push_back(Term::Var(v));
    }
    if (head.empty() || Int(0, 4) == 0) {
      head.push_back(Term::Const(Value::Int(99)));
    }
    // Comparisons among body variables and constants (always safe).
    std::vector<Comparison> comparisons;
    std::vector<int> var_pool(body_vars.begin(), body_vars.end());
    const int num_comparisons = Int(0, 2);
    for (int c = 0; c < num_comparisons && !var_pool.empty(); ++c) {
      Comparison cmp;
      cmp.lhs = Term::Var(var_pool[static_cast<size_t>(
          Int(0, static_cast<int>(var_pool.size()) - 1))]);
      cmp.rhs = Int(0, 1) == 0
                    ? Term::Const(RandomValue())
                    : Term::Var(var_pool[static_cast<size_t>(
                          Int(0, static_cast<int>(var_pool.size()) - 1))]);
      cmp.is_equality = Int(0, 1) == 0;
      comparisons.push_back(std::move(cmp));
    }
    out.query = ConjunctiveQuery(std::move(head), std::move(body),
                                 std::move(comparisons));
    return out;
  }

  // Small shared domain across all three kinds, so joins exercise the
  // interned packed representations (inline ints, interned strings,
  // labeled nulls) and still collide often enough to produce matches.
  Value RandomValue() {
    switch (Int(0, 3)) {
      case 0:
        return Value::Str("s" + std::to_string(Int(1, 3)));
      case 1:
        return Value::Null(Int(1, 3));
      default:
        return Value::Int(Int(1, 4));
    }
  }

  int Int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }

  std::mt19937_64& rng() { return rng_; }

 private:
  std::mt19937_64 rng_;
};

TEST(QueryEngineTest, IndexedJoinMatchesNaiveOnRandomQueries) {
  CqFuzzer fuzzer(20260806);
  for (int i = 0; i < 1000; ++i) {
    RandomCq c = fuzzer.Next();
    Relation fast = c.query.Evaluate(c.db);
    Relation naive = c.query.EvaluateNaive(c.db);
    ASSERT_EQ(fast, naive) << "case " << i << ": " << c.query.ToString()
                           << "\nover\n"
                           << c.db.ToString();
    ASSERT_EQ(c.query.EvaluatesNonempty(c.db), !naive.empty())
        << "case " << i << ": " << c.query.ToString();
  }
}

TEST(QueryEngineTest, BytecodeMatchesNaiveDifferential) {
  // The register-bytecode executor and the naive backtracking oracle
  // must agree on every randomized case.
  CqFuzzer fuzzer(977001);
  for (int i = 0; i < 1000; ++i) {
    RandomCq c = fuzzer.Next();
    Relation bytecode = c.query.Evaluate(c.db);
    Relation naive = c.query.EvaluateNaive(c.db);
    ASSERT_EQ(bytecode, naive)
        << "bytecode vs naive, case " << i << ": " << c.query.ToString()
        << "\nover\n"
        << c.db.ToString();
  }
}

TEST(QueryEngineTest, BytecodeHandlesConstantsComparisonsAndNullaryHeads) {
  auto v = [](int i) { return Term::Var(i); };
  Database db;
  Relation r(2);
  r.Insert({Value::Str("a"), Value::Int(1)});
  r.Insert({Value::Str("a"), Value::Int(2)});
  r.Insert({Value::Str("b"), Value::Int(2)});
  r.Insert({Value::Null(7), Value::Int(3)});
  db.Set("R", r);

  // Constant probe key + attached inequality.
  ConjunctiveQuery q1({v(1)},
                      {Atom{"R", {Term::Const(Value::Str("a")), v(1)}}},
                      {Comparison{v(1), Term::Int(1), false}});
  EXPECT_EQ(q1.Evaluate(db),
            q1.EvaluateNaive(db));
  EXPECT_EQ(q1.Evaluate(db).size(), 1u);

  // Repeated variable within one atom.
  Relation s(2);
  s.Insert({Value::Int(1), Value::Int(1)});
  s.Insert({Value::Int(1), Value::Int(2)});
  db.Set("S", s);
  ConjunctiveQuery q2({v(0)}, {Atom{"S", {v(0), v(0)}}});
  EXPECT_EQ(q2.Evaluate(db),
            q2.EvaluateNaive(db));
  EXPECT_EQ(q2.Evaluate(db).size(), 1u);

  // Nullary head over a purely existential body: {()} iff a match.
  ConjunctiveQuery q3({}, {Atom{"R", {v(0), v(1)}}, Atom{"S", {v(1), v(2)}}});
  Relation nullary = q3.Evaluate(db);
  EXPECT_EQ(nullary, q3.EvaluateNaive(db));
  EXPECT_EQ(nullary.size(), 1u);
  EXPECT_EQ(nullary.arity(), 0u);

  // Labeled nulls join only with their own label.
  ConjunctiveQuery q4({v(1)},
                      {Atom{"R", {Term::Const(Value::Null(7)), v(1)}}});
  EXPECT_EQ(q4.Evaluate(db).size(), 1u);
  ConjunctiveQuery q5({v(1)},
                      {Atom{"R", {Term::Const(Value::Null(8)), v(1)}}});
  EXPECT_TRUE(q5.Evaluate(db).empty());
}

TEST(QueryEngineTest, IndexedJoinTracksDatabaseMutation) {
  // Evaluate (building indexes), mutate the database, and re-evaluate:
  // stale indexes would produce answers from the pre-mutation instance.
  CqFuzzer fuzzer(7071);
  for (int i = 0; i < 300; ++i) {
    RandomCq c = fuzzer.Next();
    (void)c.query.Evaluate(c.db);  // populate index caches
    for (const auto& [name, rel] : c.db.relations()) {
      Relation* r = c.db.GetMutable(name);
      Tuple t;
      for (size_t col = 0; col < r->arity(); ++col) {
        t.push_back(fuzzer.RandomValue());
      }
      if (fuzzer.Int(0, 1) == 0) {
        r->Insert(std::move(t));
      } else if (!r->empty()) {
        r->Erase(*r->begin());
      }
    }
    Relation fast = c.query.Evaluate(c.db);
    Relation naive = c.query.EvaluateNaive(c.db);
    ASSERT_EQ(fast, naive) << "case " << i << " after mutation: "
                           << c.query.ToString();
  }
}

TEST(QueryEngineTest, EnumerateMatchesAgreesWithNaiveBindings) {
  // EnumerateMatches drives the containment machinery; its bindings must
  // enumerate exactly the homomorphisms the naive join finds.
  CqFuzzer fuzzer(424242);
  for (int i = 0; i < 300; ++i) {
    RandomCq c = fuzzer.Next();
    std::set<std::vector<std::pair<int, Value>>> fast_bindings;
    logic::EnumerateMatches(
        c.query.body(), c.query.comparisons(), c.db,
        [&](const logic::Binding& b) {
          fast_bindings.insert({b.begin(), b.end()});
          return true;
        });
    // The naive reference: project EvaluateNaive of the full-variable
    // head; the tuple set equals the distinct binding set.
    std::set<int> vars;
    for (const Atom& a : c.query.body()) {
      for (const Term& t : a.args) {
        if (t.is_var()) vars.insert(t.var());
      }
    }
    std::vector<Term> all_vars_head;
    for (int v : vars) all_vars_head.push_back(Term::Var(v));
    ConjunctiveQuery full(all_vars_head, c.query.body(),
                          c.query.comparisons());
    Relation naive = full.EvaluateNaive(c.db);
    std::set<std::vector<std::pair<int, Value>>> naive_bindings;
    for (const Tuple& t : naive) {
      std::vector<std::pair<int, Value>> b;
      size_t col = 0;
      for (int v : vars) b.emplace_back(v, t[col++]);
      naive_bindings.insert(std::move(b));
    }
    ASSERT_EQ(fast_bindings, naive_bindings)
        << "case " << i << ": " << c.query.ToString();
  }
}

TEST(QueryEngineTest, FoFromCqMatchesCqEvaluate) {
  // FromCq of a safe CQ is safe-range, so the FO query runs compiled: an
  // independent lowering of the same body onto the same executor. Small
  // heads also meet the interpreter, closing the triangle.
  CqFuzzer fuzzer(555);
  int checked = 0;
  for (int i = 0; i < 1000; ++i) {
    RandomCq c = fuzzer.Next();
    if (c.query.Validate().has_value()) continue;
    ++checked;
    logic::FoQuery fo = logic::FoQuery::FromCq(c.query);
    ASSERT_TRUE(fo.compiled()) << "case " << i << ": " << fo.ToString();
    Relation cq = c.query.Evaluate(c.db);
    ASSERT_EQ(cq, fo.Evaluate(c.db)) << "case " << i << ": "
                                     << c.query.ToString();
    ASSERT_EQ(fo.EvaluatesNonempty(c.db), !cq.empty()) << "case " << i;
    if (c.query.head().size() <= 2) {
      ASSERT_EQ(cq, fo.EvaluateNaive(c.db)) << "case " << i;
    }
  }
  EXPECT_GE(checked, 900);
}

// ---------------------------------------------------------------------------
// Compiled FO vs the active-domain interpreter.
// ---------------------------------------------------------------------------

using logic::FoFormula;
using logic::FoQuery;

struct RandomFo {
  FoQuery query;
  Database db;
};

// Random FO queries, mostly safe-range by construction: Positive(V)
// builds a formula that range-restricts every variable of V (atoms,
// unions of independently generated branches, ∃, equality bindings),
// and Condition(V) a side condition over V (negation, guarded ∀,
// (in)equalities, closed guards, shadowed quantifiers, filters whose
// variables only the context binds). A slice of unsafe formulas checks
// that the fallback stays exact too. Relations may be empty, absent or
// of the wrong arity; constants may lie outside the active domain.
class FoFuzzer {
 public:
  explicit FoFuzzer(uint64_t seed) : rng_(seed) {}

  RandomFo Next() {
    RandomFo out;
    next_var_ = 10;
    for (int r = 0; r < kRelations; ++r) {
      arity_[r] = static_cast<size_t>(Int(0, 5) == 0 ? 0 : Int(1, 2));
      SetRandomRelation(r, &out.db);
    }
    if (Int(0, 3) == 0) {  // values only the interpreter's domain sees
      out.db.Set("Other", RandomRelation(1));
    }
    std::vector<int> head_vars;
    for (int i = 0, n = Int(0, 2); i < n; ++i) head_vars.push_back(i);
    FoFormula f = Int(0, 9) == 0 ? Unsafe(head_vars) : Positive(head_vars, 2);
    std::vector<Term> head;
    for (int v : head_vars) head.push_back(Term::Var(v));
    std::shuffle(head.begin(), head.end(), rng_);
    if (!head_vars.empty() && Int(0, 3) == 0) {  // repeated head variable
      head.push_back(Term::Var(head_vars[0]));
    }
    if (Int(0, 3) == 0) {  // head constant, maybe outside adom
      head.insert(head.begin() + Int(0, static_cast<int>(head.size())),
                  Constant());
    }
    out.query = FoQuery(std::move(head), std::move(f));
    return out;
  }

  // Another database for the last query's relations, drawn the same way.
  Database NextDatabase() {
    Database db;
    for (int r = 0; r < kRelations; ++r) SetRandomRelation(r, &db);
    if (Int(0, 3) == 0) db.Set("Other", RandomRelation(1));
    return db;
  }

 private:
  static constexpr int kRelations = 3;

  void SetRandomRelation(int r, Database* db) {
    switch (Int(0, 7)) {
      case 0:
        break;  // absent: a positive atom is false, its negation true
      case 1:  // wrong arity: likewise
        db->Set(Name(r), RandomRelation(arity_[r] + 1));
        break;
      default:
        db->Set(Name(r), RandomRelation(arity_[r]));
    }
  }

  static std::string Name(int r) { return "R" + std::to_string(r); }

  FoFormula Positive(const std::vector<int>& vars, int depth) {
    switch (depth <= 0 ? 0 : Int(0, 6)) {
      case 1:  // union; the branches' shapes differ independently
        return FoFormula::Or(Positive(vars, depth - 1),
                             Positive(vars, depth - 1));
      case 2: {
        const int y = next_var_++;
        std::vector<int> more = vars;
        more.push_back(y);
        return FoFormula::Exists(y, Positive(more, depth - 1));
      }
      case 3:
        return FoFormula::And(Positive(vars, depth - 1),
                              Condition(vars, depth - 1));
      case 4: {  // split the variables across two conjuncts
        std::vector<int> a, b;
        for (int v : vars) (Int(0, 1) == 0 ? a : b).push_back(v);
        return FoFormula::And(Positive(a, depth - 1), Positive(b, depth - 1));
      }
      case 5: {  // bind a variable by equality only
        if (vars.empty()) break;
        const int x = vars.back();
        std::vector<int> rest(vars.begin(), vars.end() - 1);
        FoFormula binding =
            rest.empty() || Int(0, 1) == 0
                ? FoFormula::Eq(Term::Var(x), Constant())
                : FoFormula::Eq(Term::Var(rest[Pick(rest.size())]),
                                Term::Var(x));
        return FoFormula::And(Positive(rest, depth - 1), binding);
      }
      case 6:
        if (vars.empty()) {
          return FoFormula::And(Condition({}, depth - 1),
                                Positive(vars, depth - 1));
        }
        break;
      default:
        break;
    }
    return Cover(vars);
  }

  // A conjunction of atoms mentioning every variable of `vars`; extra
  // variables are existentially quantified.
  FoFormula Cover(const std::vector<int>& vars) {
    std::set<int> uncovered(vars.begin(), vars.end());
    std::vector<FoFormula> atoms;
    std::vector<int> extra;
    do {
      const int r = Int(0, kRelations - 1);
      std::vector<Term> args;
      for (size_t c = 0; c < arity_[r]; ++c) {
        if (!uncovered.empty() && Int(0, 3) != 0) {
          args.push_back(Term::Var(*uncovered.begin()));
          uncovered.erase(uncovered.begin());
        } else if (!vars.empty() && Int(0, 2) == 0) {
          args.push_back(Term::Var(vars[Pick(vars.size())]));
        } else if (Int(0, 2) == 0) {
          args.push_back(Constant());
        } else {
          extra.push_back(next_var_++);
          args.push_back(Term::Var(extra.back()));
        }
      }
      atoms.push_back(FoFormula::MakeAtom(Name(r), std::move(args)));
    } while (!uncovered.empty() && atoms.size() < 4);
    FoFormula body = FoFormula::And(std::move(atoms));
    for (int v : uncovered) {  // an unlucky draw: cover by equality
      body = FoFormula::And(body, FoFormula::Eq(Term::Var(v), Constant()));
    }
    return FoFormula::Exists(extra, std::move(body));
  }

  // A side condition whose free variables lie in `vars`.
  FoFormula Condition(const std::vector<int>& vars, int depth) {
    auto var = [&]() { return Term::Var(vars[Pick(vars.size())]); };
    auto atom_over = [&](std::vector<Term> pool) {
      const int r = Int(0, kRelations - 1);
      std::vector<Term> args;
      for (size_t c = 0; c < arity_[r]; ++c) {
        args.push_back(pool.empty() || Int(0, 3) == 0
                           ? Constant()
                           : pool[Pick(pool.size())]);
      }
      return FoFormula::MakeAtom(Name(r), std::move(args));
    };
    std::vector<Term> pool;
    for (int v : vars) pool.push_back(Term::Var(v));
    switch (Int(0, 8)) {
      case 0:  // anti-join on an atom
        return FoFormula::Not(atom_over(pool));
      case 1:  // (in)equalities
        if (vars.empty()) break;
        return Int(0, 1) == 0 ? FoFormula::Neq(var(), Int(0, 1) == 0
                                                          ? var()
                                                          : Constant())
                              : FoFormula::Eq(var(), Constant());
      case 2: {  // guarded ∀y (A(x̄, y) → B(y))
        const int y = next_var_++;
        std::vector<Term> guard_pool = pool;
        guard_pool.push_back(Term::Var(y));
        guard_pool.push_back(Term::Var(y));
        return FoFormula::Forall(
            y, FoFormula::Implies(atom_over(guard_pool),
                                  atom_over({Term::Var(y)})));
      }
      case 3: {  // closed guard, maybe negated
        const int z = next_var_++;
        FoFormula any = FoFormula::Exists(z, atom_over({Term::Var(z)}));
        return Int(0, 1) == 0 ? FoFormula::Not(any) : any;
      }
      case 4:  // a filter disjunction
        if (depth <= 0) break;
        return FoFormula::Or(Condition(vars, depth - 1),
                             Condition(vars, depth - 1));
      case 5: {  // shadowed quantifier: the inner x is not the outer one
        if (vars.empty()) break;
        const int x = vars[Pick(vars.size())];
        return FoFormula::Exists(x, atom_over({Term::Var(x)}));
      }
      case 6: {  // nested negation: ¬∃y (A(x̄, y) ∧ ¬B(y))
        const int y = next_var_++;
        std::vector<Term> inner = pool;
        inner.push_back(Term::Var(y));
        return FoFormula::Not(FoFormula::Exists(
            y, FoFormula::And(atom_over(inner),
                              FoFormula::Not(atom_over({Term::Var(y)})))));
      }
      case 7: {  // a parameter only the context binds: ¬∃y (A(y) ∧ y ≠ x)
        if (vars.empty()) break;
        const int y = next_var_++;
        return FoFormula::Not(FoFormula::Exists(
            y, FoFormula::And(atom_over({Term::Var(y)}),
                              FoFormula::Neq(Term::Var(y), var()))));
      }
      default:
        if (depth > 0) {
          return FoFormula::Not(Positive(vars, depth - 1));
        }
    }
    return FoFormula::Not(atom_over(pool));
  }

  // Formulas that are not safe-range: the interpreter must run them.
  FoFormula Unsafe(const std::vector<int>& vars) {
    const int y = next_var_++;
    const Term x = vars.empty() ? Term::Var(y) : Term::Var(vars[0]);
    FoFormula a = FoFormula::MakeAtom(Name(0), {x});
    switch (Int(0, 3)) {
      case 0:  // a tautology over the active domain
        return FoFormula::And(
            Positive(vars, 0),
            FoFormula::Forall(y, FoFormula::Or(
                                     FoFormula::MakeAtom(Name(1), {Term::Var(y)}),
                                     FoFormula::Not(FoFormula::MakeAtom(
                                         Name(1), {Term::Var(y)})))));
      case 1:  // an unrestricted negation
        return FoFormula::Exists(y, FoFormula::Not(FoFormula::MakeAtom(
                                        Name(0), {Term::Var(y)})));
      case 2:  // a quantifier over nothing
        return FoFormula::And(Positive(vars, 0), FoFormula::Exists(y, FoFormula::True()));
      default: {  // a branch that binds nothing
        FoFormula either =
            FoFormula::Or(a, FoFormula::Not(FoFormula::MakeAtom(Name(2), {x})));
        return vars.empty() ? FoFormula::Exists(y, either)
                            : FoFormula::And(Positive(vars, 0), either);
      }
    }
  }

  Relation RandomRelation(size_t arity) {
    Relation rel(arity);
    for (int t = 0, n = Int(0, 5); t < n; ++t) {
      Tuple tuple;
      for (size_t c = 0; c < arity; ++c) tuple.push_back(RandomValue());
      rel.Insert(std::move(tuple));
    }
    return rel;
  }

  Value RandomValue() {
    switch (Int(0, 4)) {
      case 0:
        return Value::Str(Int(0, 1) == 0 ? "a" : "b");
      case 1:
        return Value::Null(1);
      default:
        return Value::Int(Int(1, 3));
    }
  }

  // Mostly values from the databases' pool, sometimes one outside it.
  Term Constant() {
    if (Int(0, 4) == 0) {
      return Int(0, 1) == 0 ? Term::Int(77) : Term::Str("zz");
    }
    return Term::Const(RandomValue());
  }

  size_t Pick(size_t n) {
    return static_cast<size_t>(Int(0, static_cast<int>(n) - 1));
  }
  int Int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }

  std::mt19937_64 rng_;
  size_t arity_[kRelations] = {};
  int next_var_ = 10;
};

TEST(QueryEngineTest, CompiledFoMatchesInterpreterDifferential) {
  FoFuzzer fuzzer(20261018);
  int compiled = 0;
  const int kCases = 2500;
  for (int i = 0; i < kCases; ++i) {
    RandomFo c = fuzzer.Next();
    ASSERT_FALSE(c.query.Validate().has_value()) << c.query.ToString();
    const Relation naive = c.query.EvaluateNaive(c.db);
    const Relation fast = c.query.Evaluate(c.db);
    ASSERT_EQ(fast, naive) << "case " << i << " ("
                           << (c.query.compiled() ? "compiled" : "interpreted")
                           << "): " << c.query.ToString() << "\nover\n"
                           << c.db.ToString();
    ASSERT_EQ(c.query.EvaluatesNonempty(c.db), !naive.empty())
        << "case " << i << ": " << c.query.ToString();
    compiled += c.query.compiled() ? 1 : 0;
  }
  // Most cases must exercise the compiled path, and some the fallback.
  EXPECT_GE(compiled, kCases * 3 / 4);
  EXPECT_LT(compiled, kCases);
}

TEST(QueryEngineTest, CompiledFoEdgeCases) {
  auto v = [](int i) { return Term::Var(i); };
  Database db;
  Relation r(2);
  r.Insert({Value::Int(1), Value::Int(2)});
  r.Insert({Value::Int(2), Value::Int(2)});
  db.Set("R", r);
  Relation s(1);
  s.Insert({Value::Int(2)});
  db.Set("S", s);
  auto check = [&](const FoQuery& q, size_t expected_rows) {
    ASSERT_TRUE(q.compiled()) << q.ToString();
    const Relation naive = q.EvaluateNaive(db);
    EXPECT_EQ(q.Evaluate(db), naive) << q.ToString();
    EXPECT_EQ(naive.size(), expected_rows) << q.ToString();
  };
  // Nullary head over a closed formula: {()} or {}.
  check(FoQuery({}, FoFormula::Exists({0, 1}, FoFormula::MakeAtom("R", {v(0), v(1)}))), 1);
  check(FoQuery({}, FoFormula::Not(FoFormula::Exists(0, FoFormula::MakeAtom("S", {v(0)})))), 0);
  // Head constant outside adom, repeated head variable.
  check(FoQuery({Term::Int(77), v(0), v(0)},
                FoFormula::Exists(1, FoFormula::MakeAtom("R", {v(0), v(1)}))),
        2);
  // Equality-only binding to a constant outside adom.
  check(FoQuery({v(0)}, FoFormula::Eq(v(0), Term::Int(77))), 1);
  // Guarded ∀: x's R-successors all lie in S.
  check(FoQuery({v(0)},
                FoFormula::And(
                    FoFormula::Exists(1, FoFormula::MakeAtom("R", {v(0), v(1)})),
                    FoFormula::Forall(1, FoFormula::Implies(
                                             FoFormula::MakeAtom("R", {v(0), v(1)}),
                                             FoFormula::MakeAtom("S", {v(1)}))))),
        2);
  // Absent relation and wrong arity: the atom is false, its negation true.
  check(FoQuery({v(0)}, FoFormula::And(FoFormula::MakeAtom("S", {v(0)}),
                                       FoFormula::Not(FoFormula::MakeAtom(
                                           "Missing", {v(0)})))),
        1);
  check(FoQuery({v(0)}, FoFormula::And(FoFormula::MakeAtom("S", {v(0)}),
                                       FoFormula::MakeAtom("R", {v(0)}))),
        0);
  // Empty relation.
  db.Set("E", Relation(1));
  check(FoQuery({v(0)}, FoFormula::Or(FoFormula::MakeAtom("E", {v(0)}),
                                      FoFormula::MakeAtom("S", {v(0)}))),
        1);
}

// ---------------------------------------------------------------------------
// One compiled query, many databases: a rule is compiled once and bound
// per evaluation, so nothing of one database may leak into the next.
// ---------------------------------------------------------------------------

// ans(x, z) :- R(x, y), T(y, z), y != 3 and friends, as rules (compiled
// once, in RelQuery) with their reference evaluations.
struct ScriptedRule {
  core::RelQuery rule;
  std::function<Relation(const Database&)> naive;
};

std::vector<ScriptedRule> ScriptedRules() {
  auto v = [](int i) { return Term::Var(i); };
  auto atom = [](const std::string& r, std::vector<Term> args) {
    return FoFormula::MakeAtom(r, std::move(args));
  };
  std::vector<ScriptedRule> out;
  auto add_cq = [&out](ConjunctiveQuery q) {
    out.push_back({core::RelQuery::Cq(q),
                   [q](const Database& db) { return q.EvaluateNaive(db); }});
  };
  auto add_fo = [&out](FoQuery q) {
    EXPECT_TRUE(q.compiled()) << q.ToString();
    out.push_back({core::RelQuery::Fo(q),
                   [q](const Database& db) { return q.EvaluateNaive(db); }});
  };
  // A two-atom join whose greedy order used to follow relation sizes.
  add_cq(ConjunctiveQuery({v(0), v(2)},
                          {Atom{"R", {v(0), v(1)}}, Atom{"T", {v(1), v(2)}}},
                          {Comparison{v(1), Term::Int(3), false}}));
  // Constant probe key; nullary head over two components.
  add_cq(ConjunctiveQuery({v(1)}, {Atom{"R", {Term::Int(1), v(1)}},
                                   Atom{"S", {v(1)}}}));
  add_cq(ConjunctiveQuery({}, {Atom{"R", {v(0), v(1)}}, Atom{"S", {v(2)}}}));
  // Two head components joined in one program, a constant head term.
  add_cq(ConjunctiveQuery({v(0), Term::Int(9), v(2)},
                          {Atom{"S", {v(0)}}, Atom{"T", {v(2), v(2)}}}));
  // A UCQ: R's sources, and S's values other than 2.
  logic::UnionQuery ucq(1);
  ucq.Add(ConjunctiveQuery({v(0)}, {Atom{"R", {v(0), v(1)}}}));
  ucq.Add(ConjunctiveQuery({v(0)}, {Atom{"S", {v(0)}}},
                           {Comparison{v(0), Term::Int(2), false}}));
  out.push_back({core::RelQuery::Ucq(ucq), [ucq](const Database& db) {
                   Relation rows(1);
                   for (const auto& d : ucq.disjuncts()) {
                     rows = rows.Union(d.EvaluateNaive(db));
                   }
                   return rows;
                 }});
  // FO: an anti-join filter, a closed guard, a guarded ∀ with a nullary
  // head, and a filter over a parameter only the context binds.
  add_fo(FoQuery({v(0)}, FoFormula::Exists(
                             1, FoFormula::And(atom("R", {v(0), v(1)}),
                                               FoFormula::Not(atom("S", {v(1)}))))));
  add_fo(FoQuery({v(0)},
                 FoFormula::And(atom("S", {v(0)}),
                                FoFormula::Exists(2, atom("T", {v(2), v(2)})))));
  add_fo(FoQuery(
      {}, FoFormula::Exists(
              0, FoFormula::And(atom("S", {v(0)}),
                                FoFormula::Forall(1, FoFormula::Implies(
                                                         atom("R", {v(0), v(1)}),
                                                         atom("S", {v(1)})))))));
  add_fo(FoQuery(
      {v(0), v(1)},
      FoFormula::And(atom("T", {v(0), v(1)}),
                     FoFormula::Not(FoFormula::Exists(
                         2, FoFormula::And(atom("R", {v(2), v(0)}),
                                           FoFormula::Neq(v(2), v(1))))))));
  return out;
}

Relation Rows(size_t arity, std::vector<std::vector<int64_t>> rows) {
  Relation r(arity);
  for (const auto& row : rows) {
    Tuple t;
    for (int64_t x : row) t.push_back(Value::Int(x));
    r.Insert(std::move(t));
  }
  return r;
}

TEST(QueryEngineTest, OneCompiledQueryManyDatabases) {
  const std::vector<ScriptedRule> rules = ScriptedRules();
  ASSERT_EQ(rules.size(), 9u);
  Relation big_r(2), big_t(2);
  for (int64_t i = 0; i < 40; ++i) {
    big_r.Insert({Value::Int(i % 5), Value::Int(i % 7)});
    big_t.Insert({Value::Int(i % 7), Value::Int(i % 4)});
  }
  const Relation small_r = Rows(2, {{1, 2}, {2, 2}, {4, 3}});
  const Relation small_t = Rows(2, {{2, 2}, {3, 1}});
  const Relation s = Rows(1, {{1}, {2}, {4}});

  // Each step rewrites the database the previous step left.
  std::vector<std::pair<std::string, std::function<void(Database*)>>> steps = {
      {"R and T absent", [&](Database* db) { db->Set("S", s); }},
      {"R and T present", [&](Database* db) {
         db->Set("R", small_r);
         db->Set("T", small_t);
       }},
      {"R of the wrong arity",
       [&](Database* db) { db->Set("R", Rows(3, {{1, 2, 0}, {2, 2, 0}})); }},
      {"R empty", [&](Database* db) { db->Set("R", Relation(2)); }},
      {"R large, T small", [&](Database* db) {
         db->Set("R", big_r);
         db->Set("T", small_t);
       }},
      {"R small, T large", [&](Database* db) {
         db->Set("R", small_r);
         db->Set("T", big_t);
       }},
      {"S empty, one index per relation", [&](Database* db) {
         db->Set("S", Relation(1));
         db->SetIndexBudget(rel::IndexBudget{0, 1});
         db->Set("R", big_r);
       }},
      {"index caches dropped", [&](Database* db) {
         db->Set("S", s);
         db->DropIndexCaches();
       }},
      {"T of the wrong arity, caches dropped", [&](Database* db) {
         db->Set("T", Rows(1, {{2}, {3}}));
         db->DropIndexCaches();
       }},
      {"everything back", [&](Database* db) {
         db->Set("R", small_r);
         db->Set("T", small_t);
         db->DropIndexCaches();
       }},
  };
  Database db;
  for (const auto& [name, apply] : steps) {
    apply(&db);
    for (size_t q = 0; q < rules.size(); ++q) {
      // Twice per database: the second run meets the indexes the first
      // built (or, under the budget, the ones it evicted).
      for (int pass = 0; pass < 2; ++pass) {
        const Relation naive = rules[q].naive(db);
        ASSERT_EQ(rules[q].rule.Evaluate(db), naive)
            << name << ", rule " << q << ": " << rules[q].rule.ToString()
            << "\nover\n"
            << db.ToString();
        ASSERT_EQ(rules[q].rule.EvaluatesNonempty(db), !naive.empty())
            << name << ", rule " << q << ": " << rules[q].rule.ToString();
      }
    }
  }
}

TEST(QueryEngineTest, OneCompiledFoQueryManyRandomDatabases) {
  FoFuzzer fuzzer(20261020);
  for (int i = 0; i < 400; ++i) {
    RandomFo c = fuzzer.Next();
    for (int d = 0; d < 6; ++d) {
      Database db = d == 0 ? c.db : fuzzer.NextDatabase();
      if (d % 3 == 1) db.SetIndexBudget(rel::IndexBudget{0, 1});
      const Relation naive = c.query.EvaluateNaive(db);
      ASSERT_EQ(c.query.Evaluate(db), naive)
          << "case " << i << ", database " << d << ": " << c.query.ToString()
          << "\nover\n"
          << db.ToString();
      if (d % 2 == 1) db.DropIndexCaches();
      ASSERT_EQ(c.query.EvaluatesNonempty(db), !naive.empty())
          << "case " << i << ", database " << d << ": " << c.query.ToString();
    }
  }
}

// The Section 3 web-store peer: requested catalogue items go to the cart
// (state); re-requesting a carted item purchases it (action).
models::Peer ShopPeer() {
  auto v = [](int i) { return Term::Var(i); };
  rel::Schema schema;
  schema.Add(rel::RelationSchema("Item", {"id", "price"}));
  models::Peer shop(schema, 1, 1, 2);
  shop.set_state_rule(FoFormula::And(
      FoFormula::Or(FoFormula::MakeAtom(models::Peer::kPeerState, {v(0)}),
                    FoFormula::MakeAtom(models::Peer::kPeerInput, {v(0)})),
      FoFormula::Exists(1, FoFormula::MakeAtom("Item", {v(0), v(1)}))));
  shop.set_action_rule(FoFormula::And(
      {FoFormula::MakeAtom(models::Peer::kPeerState, {v(0)}),
       FoFormula::MakeAtom(models::Peer::kPeerInput, {v(0)}),
       FoFormula::MakeAtom("Item", {v(0), v(1)})}));
  return shop;
}

TEST(QueryEngineTest, SharedCompiledRulesEvaluateConcurrently) {
  // One service object, its rules compiled once, run by four threads at
  // once on private database copies: every run must equal the
  // single-threaded one. (Under TSan this checks that evaluation only
  // reads the compiled forms.)
  struct Service {
    core::Sws sws;
    Database db;
    std::vector<rel::InputSequence> inputs;
    std::vector<Relation> expected;
  };
  std::vector<Service> services;
  {
    const models::Peer shop = ShopPeer();
    Service peer{models::PeerToSws(shop), Database(), {}, {}};
    peer.db.Set("Item", Rows(2, {{1, 10}, {2, 25}}));
    std::mt19937_64 rng(7);
    for (size_t steps = 2; steps <= 8; ++steps) {
      std::vector<Relation> requests;
      for (size_t k = 0; k < steps; ++k) {
        const uint64_t mask = 1 + rng() % 7;
        Relation request(1);
        for (int64_t item = 1; item <= 3; ++item) {
          if (mask & (1u << (item - 1))) request.Insert({Value::Int(item)});
        }
        requests.push_back(std::move(request));
      }
      peer.inputs.push_back(models::EncodePeerInput(shop, requests));
    }
    services.push_back(std::move(peer));
  }
  {
    Service travel{models::MakeTravelService().sws,
                   models::MakeTravelDatabase(), {}, {}};
    for (const char* dest : {"orlando", "paris", "tokyo"}) {
      rel::InputSequence input(travel.sws.rin_arity());
      input.Append(models::MakeTravelRequest(dest, 1000));
      travel.inputs.push_back(std::move(input));
    }
    services.push_back(std::move(travel));
  }
  for (Service& s : services) {
    for (const rel::InputSequence& input : s.inputs) {
      core::RunResult run = core::Run(s.sws, s.db, input);
      ASSERT_TRUE(run.status.ok()) << run.status.ToString();
      s.expected.push_back(std::move(run.output));
    }
  }
  ASSERT_FALSE(services[0].expected.back().empty());
  ASSERT_FALSE(services[1].expected.front().empty());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&services, &mismatches, t] {
      for (int round = 0; round < 5; ++round) {
        for (const Service& s : services) {
          Database mine = s.db;  // private: runs may build its indexes
          for (size_t i = 0; i < s.inputs.size(); ++i) {
            const size_t k = (i + static_cast<size_t>(t)) % s.inputs.size();
            core::RunResult run = core::Run(s.sws, mine, s.inputs[k]);
            if (!run.status.ok() || !(run.output == s.expected[k])) {
              mismatches.fetch_add(1);
            }
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Every FO query of a service, transitions and syntheses.
std::vector<logic::FoQuery> FoQueriesOf(const core::Sws& sws) {
  std::vector<logic::FoQuery> out;
  for (int q = 0; q < sws.num_states(); ++q) {
    for (const auto& t : sws.Successors(q)) {
      if (t.query.is_fo()) out.push_back(t.query.fo());
    }
    if (sws.Synthesis(q).is_fo()) out.push_back(sws.Synthesis(q).fo());
  }
  return out;
}

TEST(QueryEngineTest, PaperServicesTakeTheCompiledPath) {
  // Figure 1: ψ0 and the recursive ψ'_a.
  for (const core::Sws& sws : {models::MakeTravelService().sws,
                               models::MakeTravelServiceRecursive().sws}) {
    std::vector<logic::FoQuery> queries = FoQueriesOf(sws);
    ASSERT_FALSE(queries.empty());
    for (const auto& q : queries) EXPECT_TRUE(q.compiled()) << q.ToString();
  }
  // Section 3: every rule of the peer embedding.
  {
    std::vector<logic::FoQuery> queries =
        FoQueriesOf(models::PeerToSws(ShopPeer()));
    ASSERT_EQ(queries.size(), 7u);
    for (const auto& q : queries) EXPECT_TRUE(q.compiled()) << q.ToString();
  }
  // PL-SWS over relations: every BoolQuery condition.
  core::WorkloadGenerator gen(4242);
  core::WorkloadGenerator::PlSwsParams params;
  params.allow_recursion = true;
  for (int i = 0; i < 50; ++i) {
    for (const auto& q : FoQueriesOf(core::PlSwsToRelational(gen.RandomPlSws(params)))) {
      EXPECT_TRUE(q.compiled()) << q.ToString();
    }
  }
}

TEST(QueryEngineTest, HogTautologiesStayInterpreted) {
  // The governed hogs of chaos_test and governor_test: all-universal
  // tautologies over unused quantified variables. Not safe-range, so the
  // interpreter runs them and they stay |adom|^depth hogs.
  auto tautology = [](const std::string& rel, std::vector<Term> args,
                      int depth) {
    FoFormula body = FoFormula::Or(FoFormula::MakeAtom(rel, args),
                                   FoFormula::Not(FoFormula::MakeAtom(rel, args)));
    for (int i = depth - 1; i >= 0; --i) {
      body = FoFormula::Forall(i, std::move(body));
    }
    return body;
  };
  FoQuery chaos_hog({Term::Str("ins"), Term::Str("Log"), Term::Int(1)},
                    tautology(core::kMsgRelation, {Term::Var(0)}, 5));
  FoQuery governor_hog({Term::Int(1)},
                       tautology("E", {Term::Var(0), Term::Var(1)}, 8));
  EXPECT_FALSE(chaos_hog.compiled());
  EXPECT_FALSE(governor_hog.compiled());
}

// ---------------------------------------------------------------------------
// Execution-tree memoization.
// ---------------------------------------------------------------------------

TEST(QueryEngineTest, MemoizedRunMatchesRawOnRandomServices) {
  core::WorkloadGenerator gen(977);
  core::WorkloadGenerator::CqSwsParams params;
  for (int i = 0; i < 300; ++i) {
    core::Sws sws = gen.RandomCqSws(params);
    Database db = gen.RandomDatabase(sws.db_schema(), 4, 5);
    rel::InputSequence input = gen.RandomInput(sws.rin_arity(), 4, 2, 5);

    core::RunOptions memo_on;
    memo_on.memoize = true;
    core::RunOptions memo_off;
    memo_off.memoize = false;
    core::RunResult with = core::Run(sws, db, input, memo_on);
    core::RunResult without = core::Run(sws, db, input, memo_off);

    ASSERT_EQ(with.status.ok(), without.status.ok()) << "case " << i;
    ASSERT_EQ(with.output, without.output) << "case " << i;
    ASSERT_EQ(with.max_timestamp, without.max_timestamp) << "case " << i;
    ASSERT_LE(with.num_nodes, without.num_nodes) << "case " << i;
    if (with.status.ok()) {
      // Every non-root node is classified as exactly one hit or miss.
      ASSERT_EQ(with.num_nodes, 1 + with.memo_hits + with.memo_misses)
          << "case " << i;
      ASSERT_EQ(with.memo_entries, with.memo_misses) << "case " << i;
    }
    ASSERT_EQ(without.memo_hits, 0u);
    ASSERT_EQ(without.memo_misses, 0u);
  }
}

TEST(QueryEngineTest, MemoizationCollapsesRepeatedSubtrees) {
  // The non-linear sirup embedding: two recursive body atoms make the
  // raw execution tree exponential in the fuel, but both recursive
  // children of a node carry identical (state, timestamp, Msg) labels,
  // so memoization collapses the tree to one path per level. The issue's
  // acceptance bar is a >= 10x node reduction.
  logic::Sirup sirup;
  auto v = [](int i) { return Term::Var(i); };
  sirup.rule = logic::DatalogRule{
      Atom{"P", {v(0), v(1)}},
      {Atom{"P", {v(0), v(2)}}, Atom{"P", {v(2), v(3)}},
       Atom{"E", {v(3), v(1)}}}};
  sirup.ground_fact = Atom{"P", {Term::Int(1), Term::Int(1)}};
  core::Sws sws = models::SirupToSws(sirup);
  Database edb;
  Relation e(2);
  for (int i = 1; i <= 6; ++i) {
    e.Insert({Value::Int(i), Value::Int(i + 1)});
  }
  edb.Set("E", e);
  rel::InputSequence fuel = models::SirupFuel(sirup, 8);

  core::RunOptions memo_on;
  core::RunOptions memo_off;
  memo_off.memoize = false;
  core::RunResult with = core::Run(sws, edb, fuel, memo_on);
  core::RunResult without = core::Run(sws, edb, fuel, memo_off);

  ASSERT_TRUE(with.status.ok());
  ASSERT_TRUE(without.status.ok());
  EXPECT_EQ(with.output, without.output);
  EXPECT_GT(with.memo_hits, 0u);
  EXPECT_GE(without.num_nodes, 10 * with.num_nodes)
      << "memoized=" << with.num_nodes << " raw=" << without.num_nodes;
  // The *logical* node count — what the un-memoized tree would evaluate —
  // must be identical either way: a memo hit charges the full replayed
  // subtree, so memoization is a speedup, not a budget loophole.
  EXPECT_EQ(with.logical_nodes, without.logical_nodes);
  EXPECT_EQ(without.logical_nodes, without.num_nodes);
}

TEST(QueryEngineTest, KeepTreeDisablesMemoization) {
  // A retained tree must materialize every subtree, so keep_tree wins
  // over memoize and the counters stay zero.
  logic::Sirup sirup;
  auto v = [](int i) { return Term::Var(i); };
  sirup.rule = logic::DatalogRule{
      Atom{"P", {v(0), v(1)}},
      {Atom{"P", {v(0), v(2)}}, Atom{"P", {v(2), v(3)}},
       Atom{"E", {v(3), v(1)}}}};
  sirup.ground_fact = Atom{"P", {Term::Int(1), Term::Int(1)}};
  core::Sws sws = models::SirupToSws(sirup);
  Database edb;
  Relation e(2);
  e.Insert({Value::Int(1), Value::Int(2)});
  edb.Set("E", e);
  rel::InputSequence fuel = models::SirupFuel(sirup, 4);

  core::RunOptions options;
  options.keep_tree = true;
  options.memoize = true;
  core::RunResult run = core::Run(sws, edb, fuel, options);
  ASSERT_TRUE(run.status.ok());
  ASSERT_NE(run.tree, nullptr);
  EXPECT_EQ(run.memo_hits, 0u);
  EXPECT_EQ(run.memo_misses, 0u);
  EXPECT_EQ(run.memo_entries, 0u);
  // Tree nodes carry their registers when retained.
  EXPECT_EQ(run.tree->msg.arity(), sws.rin_arity());
}

TEST(QueryEngineTest, MemoizedBudgetAbortStaysClean) {
  // A budget abort mid-subtree must not cache partial results or report
  // a partial output; rerunning with a budget exactly at the memoized
  // node count must succeed.
  logic::Sirup sirup;
  auto v = [](int i) { return Term::Var(i); };
  sirup.rule = logic::DatalogRule{
      Atom{"P", {v(0), v(1)}},
      {Atom{"P", {v(0), v(2)}}, Atom{"P", {v(2), v(3)}},
       Atom{"E", {v(3), v(1)}}}};
  sirup.ground_fact = Atom{"P", {Term::Int(1), Term::Int(1)}};
  core::Sws sws = models::SirupToSws(sirup);
  Database edb;
  Relation e(2);
  for (int i = 1; i <= 4; ++i) {
    e.Insert({Value::Int(i), Value::Int(i + 1)});
  }
  edb.Set("E", e);
  rel::InputSequence fuel = models::SirupFuel(sirup, 7);

  core::RunResult full = core::Run(sws, edb, fuel);
  ASSERT_TRUE(full.status.ok());

  // max_nodes bounds the *logical* tree (memo hits charge the replayed
  // subtree), so the budget that exactly fits is logical_nodes — the
  // same number a memoization-free run would report.
  core::RunOptions tight;
  tight.max_nodes = full.logical_nodes;
  core::RunResult ok = core::Run(sws, edb, fuel, tight);
  EXPECT_TRUE(ok.status.ok());
  EXPECT_EQ(ok.output, full.output);

  tight.max_nodes = full.logical_nodes - 1;
  core::RunResult aborted = core::Run(sws, edb, fuel, tight);
  EXPECT_FALSE(aborted.status.ok());
  EXPECT_TRUE(aborted.output.empty());
}

}  // namespace
}  // namespace sws
