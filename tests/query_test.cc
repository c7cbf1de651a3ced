// The RelQuery wrapper (CQ/UCQ/FO variants), cross-language conversions,
// and the rule-environment conventions of the run engine.

#include <gtest/gtest.h>

#include "sws/query.h"

namespace sws::core {
namespace {

using logic::Atom;
using logic::Comparison;
using logic::ConjunctiveQuery;
using logic::FoFormula;
using logic::FoQuery;
using logic::Term;
using logic::UnionQuery;
using rel::Database;
using rel::Relation;
using rel::Value;

Database SmallDb() {
  Database db;
  Relation r(2);
  r.Insert({Value::Int(1), Value::Int(2)});
  r.Insert({Value::Int(2), Value::Int(2)});
  db.Set("R", r);
  Relation s(1);
  s.Insert({Value::Int(2)});
  db.Set("S", s);
  return db;
}

TEST(RelQueryTest, LanguageTags) {
  ConjunctiveQuery cq({Term::Var(0)}, {Atom{"R", {Term::Var(0), Term::Var(1)}}});
  EXPECT_TRUE(RelQuery::Cq(cq).is_cq());
  EXPECT_TRUE(RelQuery::Ucq(UnionQuery::Single(cq)).is_ucq());
  FoQuery fo({Term::Var(0)},
             FoFormula::Exists(1, FoFormula::MakeAtom(
                                      "R", {Term::Var(0), Term::Var(1)})));
  EXPECT_TRUE(RelQuery::Fo(fo).is_fo());
  EXPECT_EQ(RelQuery::Fo(fo).head_arity(), 1u);
}

TEST(RelQueryTest, AsUcqPromotesCq) {
  ConjunctiveQuery cq({Term::Var(0)}, {Atom{"S", {Term::Var(0)}}});
  UnionQuery u = RelQuery::Cq(cq).AsUcq();
  ASSERT_EQ(u.size(), 1u);
  EXPECT_EQ(u.Evaluate(SmallDb()), cq.Evaluate(SmallDb()));
}

TEST(RelQueryTest, AsFoPreservesCqSemantics) {
  ConjunctiveQuery cq({Term::Var(0)},
                      {Atom{"R", {Term::Var(0), Term::Var(1)}},
                       Atom{"S", {Term::Var(1)}}},
                      {Comparison{Term::Var(0), Term::Var(1), false}});
  FoQuery fo = RelQuery::Cq(cq).AsFo();
  EXPECT_EQ(fo.Evaluate(SmallDb()), cq.Evaluate(SmallDb()));
}

TEST(RelQueryTest, AsFoPreservesUcqSemantics) {
  // Union with a constant in one head: the conversion must match heads
  // via equalities.
  UnionQuery u(1);
  u.Add(ConjunctiveQuery({Term::Var(0)}, {Atom{"S", {Term::Var(0)}}}));
  u.Add(ConjunctiveQuery({Term::Int(7)},
                         {Atom{"R", {Term::Var(0), Term::Var(0)}}}));
  FoQuery fo = RelQuery::Ucq(u).AsFo();
  Database db = SmallDb();
  EXPECT_EQ(fo.Evaluate(db), u.Evaluate(db));
  // R(2,2) exists, so the constant-head disjunct fires.
  EXPECT_TRUE(fo.Evaluate(db).Contains({Value::Int(7)}));
}

TEST(RelQueryTest, ReadRelationsAcrossLanguages) {
  ConjunctiveQuery cq({Term::Var(0)},
                      {Atom{kInputRelation, {Term::Var(0)}},
                       Atom{kMsgRelation, {Term::Var(0)}},
                       Atom{"R", {Term::Var(0), Term::Var(1)}}});
  auto names = RelQuery::Cq(cq).ReadRelations();
  EXPECT_EQ(names, (std::set<std::string>{"In", "Msg", "R"}));

  FoQuery fo({Term::Var(0)},
             FoFormula::And(FoFormula::MakeAtom("S", {Term::Var(0)}),
                            FoFormula::Not(FoFormula::MakeAtom(
                                "T", {Term::Var(0)}))));
  auto fo_names = RelQuery::Fo(fo).ReadRelations();
  EXPECT_EQ(fo_names, (std::set<std::string>{"S", "T"}));
}

TEST(RelQueryTest, EvaluatesNonemptyAgreesWithEvaluate) {
  ConjunctiveQuery hit({Term::Var(0)}, {Atom{"S", {Term::Var(0)}}});
  ConjunctiveQuery miss({Term::Var(0)}, {Atom{"S", {Term::Var(0)}}},
                        {Comparison{Term::Var(0), Term::Int(99), true}});
  Database db = SmallDb();
  EXPECT_TRUE(RelQuery::Cq(hit).EvaluatesNonempty(db));
  EXPECT_FALSE(RelQuery::Cq(miss).EvaluatesNonempty(db));
  EXPECT_EQ(RelQuery::Cq(miss).Evaluate(db).empty(), true);

  // FO on both paths: safe-range queries run compiled (stopping at the
  // first match), the rest on the interpreter.
  const Term x = Term::Var(0), y = Term::Var(1);
  const std::vector<FoQuery> fo_queries = {
      // compiled: R(x, y) ∧ ¬S(x), hit; S(x) ∧ x = 99, miss
      FoQuery({x}, FoFormula::Exists(
                       1, FoFormula::And(FoFormula::MakeAtom("R", {x, y}),
                                         FoFormula::Not(FoFormula::MakeAtom(
                                             "S", {x}))))),
      FoQuery({x}, FoFormula::And(FoFormula::MakeAtom("S", {x}),
                                  FoFormula::Eq(x, Term::Int(99)))),
      // interpreted: ¬S(x) (domain-dependent), hit; ∀y (S(y) ∧ y = 3), miss
      FoQuery({x}, FoFormula::Not(FoFormula::MakeAtom("S", {x}))),
      FoQuery({}, FoFormula::Forall(
                      1, FoFormula::And(FoFormula::MakeAtom("S", {y}),
                                        FoFormula::Eq(y, Term::Int(3))))),
  };
  const bool compiled[] = {true, true, false, false};
  const bool nonempty[] = {true, false, true, false};
  for (size_t i = 0; i < fo_queries.size(); ++i) {
    const RelQuery q = RelQuery::Fo(fo_queries[i]);
    EXPECT_EQ(fo_queries[i].compiled(), compiled[i]) << q.ToString();
    EXPECT_EQ(q.EvaluatesNonempty(db), nonempty[i]) << q.ToString();
    EXPECT_EQ(q.EvaluatesNonempty(db), !q.Evaluate(db).empty())
        << q.ToString();
  }
}

TEST(RelQueryTest, ActRelationNaming) {
  EXPECT_EQ(ActRelation(1), "Act1");
  EXPECT_EQ(ActRelation(12), "Act12");
  EXPECT_DEATH(ActRelation(0), "");
}

TEST(RelQueryTest, ValidateFlagsBadQueries) {
  ConjunctiveQuery unsafe({Term::Var(9)}, {Atom{"R", {Term::Var(0), Term::Var(1)}}});
  EXPECT_TRUE(RelQuery::Cq(unsafe).Validate().has_value());
  FoQuery bad_fo({Term::Var(0)},
                 FoFormula::MakeAtom("R", {Term::Var(0), Term::Var(1)}));
  EXPECT_TRUE(RelQuery::Fo(bad_fo).Validate().has_value());
}

TEST(RelQueryTest, WrongAccessorAborts) {
  ConjunctiveQuery cq({Term::Var(0)}, {Atom{"S", {Term::Var(0)}}});
  RelQuery q = RelQuery::Cq(cq);
  EXPECT_DEATH(q.ucq(), "");
  EXPECT_DEATH(q.fo(), "");
  RelQuery f = RelQuery::Fo(RelQuery::Cq(cq).AsFo());
  EXPECT_DEATH(f.AsUcq(), "not a UCQ");
}

}  // namespace
}  // namespace sws::core
