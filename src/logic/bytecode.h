#ifndef SWS_LOGIC_BYTECODE_H_
#define SWS_LOGIC_BYTECODE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "logic/cq.h"
#include "relational/database.h"
#include "relational/relation.h"
#include "util/cancellation.h"

namespace sws::logic::bytecode {

/// Register-bytecode join execution: the one join executor behind CQ,
/// UCQ, containment and compiled (safe-range) FO evaluation.
///
/// A greedily-ordered conjunctive body is lowered into a JoinProgram: a
/// flat register machine whose state is a vector of packed 8-byte
/// rel::Value words ("registers") — parameters, then variables in
/// first-occurrence order, then the program's constants, preloaded. One
/// Level per atom either scans its relation's rows or probes a
/// bound-column-mask hash index (rel::Relation::GetIndex), and each
/// candidate row is vetted by a straight-line span of three-operand ops
/// over registers and columnar loads. No virtual dispatch, no per-probe
/// allocation: the executor is an iterative cursor stack driven by one
/// switch loop, and probe keys reuse per-level buffers whose constant
/// components are prefilled at compile time.
///
/// ISA (see DESIGN.md §12 for the op table):
///   kLoad      regs[a] = row[b]        bind a first-occurrence variable
///   kCheckCol  row[b] == regs[a]?      repeated variable / constant /
///                                      non-indexable column check
///   kCmpEq     regs[a] == regs[b]?     attached '=' comparison
///   kCmpNe     regs[a] != regs[b]?     attached '≠' comparison
///   kFilter    filter(filters[a])?     attached side condition (an FO
///                                      subformula, e.g. an anti-join)
/// Check ops reject the candidate row on failure. Because Values are
/// canonical packed words, every register op is a single integer
/// load/compare.
struct Op {
  enum Code : uint8_t {
    kLoad = 0,
    kCheckCol = 1,
    kCmpEq = 2,
    kCmpNe = 3,
    kFilter = 4
  };
  Code code;
  uint16_t a;  // register (kFilter: index into JoinProgram::filters)
  uint32_t b;  // column (kLoad/kCheckCol) or second register (kCmp*)
};

/// One variable component of a probe key: key[pos] = regs[reg].
/// Constant components are prefilled in the level's key template.
struct KeySlot {
  uint32_t pos;
  uint16_t reg;
};

struct Level {
  const rel::Relation* relation = nullptr;
  /// Shared ownership: under an IndexBudget the relation's pool may
  /// evict this index mid-run; the program's reference keeps it alive.
  std::shared_ptr<const rel::Relation::Index> index;  // null: full scan
  uint32_t ops_begin = 0, ops_end = 0;    // span into JoinProgram::ops
  uint32_t keys_begin = 0, keys_end = 0;  // span into JoinProgram::keys
};

/// A side condition attached by a kFilter op: filter `id` of the body
/// (an index into PreparedJoin's `filters`), whose argument values sit
/// in `regs` when the op runs.
struct FilterRef {
  uint32_t id = 0;
  std::vector<uint16_t> regs;
};

struct JoinProgram {
  std::vector<Level> levels;
  std::vector<Op> ops;        // all levels' ops, concatenated
  std::vector<KeySlot> keys;  // all levels' variable key slots
  std::vector<FilterRef> filters;  // kFilter operands
  /// Initial register file: [0, num_params) parameters (written by Run
  /// from its Inputs), [num_params, num_var_regs) zeroed variable
  /// registers (written by kLoad before any read), then the constants.
  std::vector<rel::Value> reg_init;
  uint16_t num_params = 0;
  uint16_t num_var_regs = 0;
  /// Per-level probe-key buffers with constant components prefilled;
  /// copied once per execution, reused across every probe.
  std::vector<rel::Tuple> key_templates;
  /// Variable id -> register (parameters included), for resolving head
  /// terms / bindings.
  std::map<int, int> var_reg;
  bool never_matches = false;      // an atom's relation absent/mismatched
  bool comparison_failed = false;  // a const-vs-const comparison is false
};

/// Evaluates a kFilter op: true iff the candidate row passes.
using FilterFn =
    std::function<bool(const FilterRef&, const std::vector<rel::Value>&)>;

/// Per-execution inputs of a body prepared with parameters or filters:
/// the parameter values (PreparedJoin's `params` order) and the filter
/// evaluator. Plain CQ bodies need neither.
struct Inputs {
  const rel::Value* params = nullptr;
  const FilterFn* filter = nullptr;
};

/// Lowers a body (atoms already join-ordered, e.g. by OrderAtomsGreedily)
/// into a JoinProgram against the given database. Each comparison is
/// attached at the first level where both sides are bound, so it costs
/// exactly one compare per candidate row. (PreparedJoin compiles bodies
/// with parameters and filters the same way.)
JoinProgram Compile(const std::vector<Atom>& ordered,
                    const std::vector<Comparison>& comparisons,
                    const rel::Database& db);

/// Greedy join ordering: repeatedly pick the atom with the most
/// constant/already-bound argument positions (parameters count as
/// bound), breaking ties toward the smallest relation instance. Turns
/// the guard-heavy bodies produced by unfolding (sws/unfold.h) from
/// cross-products into chains and feeds the index probes the most
/// selective prefix first.
std::vector<Atom> OrderAtomsGreedily(const std::vector<Atom>& body,
                                     const rel::Database& db,
                                     const std::vector<int>& params = {});

/// Runs the program; `sink(regs)` fires once per complete match and may
/// return false to stop enumeration. Returns false iff stopped early —
/// by the sink or by a tripped util::StepGate (cooperative cancellation
/// is checked once per candidate row; StepTick batches the gate admit).
/// An empty program (no levels) has exactly one empty match.
template <typename Sink>
bool Run(const JoinProgram& p, Sink&& sink, const Inputs& in = {}) {
  if (p.never_matches || p.comparison_failed) return true;
  const size_t depth = p.levels.size();
  std::vector<rel::Value> regs = p.reg_init;
  for (uint16_t i = 0; i < p.num_params; ++i) regs[i] = in.params[i];
  if (depth == 0) return sink(regs);
  std::vector<rel::Tuple> key_bufs = p.key_templates;

  struct Cursor {
    const uint32_t* bucket = nullptr;  // null: positional scan
    size_t pos = 0;
    size_t end = 0;
  };
  std::vector<Cursor> cursors(depth);

  size_t li = 0;
  bool entering = true;
  while (true) {
    const Level& level = p.levels[li];
    Cursor& cur = cursors[li];
    if (entering) {
      entering = false;
      if (level.index != nullptr) {
        rel::Tuple& key = key_bufs[li];
        for (uint32_t k = level.keys_begin; k != level.keys_end; ++k) {
          key[p.keys[k].pos] = regs[p.keys[k].reg];
        }
        auto it = level.index->buckets.find(key);
        if (it == level.index->buckets.end()) {
          cur = Cursor{};
        } else {
          cur.bucket = it->second.data();
          cur.pos = 0;
          cur.end = it->second.size();
        }
      } else {
        cur.bucket = nullptr;
        cur.pos = 0;
        cur.end = level.relation->size();
      }
    }

    // Advance this level's cursor to the next row passing all ops.
    const rel::Relation& rel = *level.relation;
    bool found = false;
    while (cur.pos < cur.end) {
      const size_t row = cur.bucket != nullptr ? cur.bucket[cur.pos] : cur.pos;
      ++cur.pos;
      if (!sws::util::StepTick()) return false;
      bool ok = true;
      for (uint32_t oi = level.ops_begin; oi != level.ops_end; ++oi) {
        const Op op = p.ops[oi];
        switch (op.code) {
          case Op::kLoad:
            regs[op.a] = rel.At(row, op.b);
            break;
          case Op::kCheckCol:
            ok = rel.At(row, op.b) == regs[op.a];
            break;
          case Op::kCmpEq:
            ok = regs[op.a] == regs[op.b];
            break;
          case Op::kCmpNe:
            ok = !(regs[op.a] == regs[op.b]);
            break;
          case Op::kFilter:
            ok = (*in.filter)(p.filters[op.a], regs);
            break;
        }
        if (!ok) break;
      }
      if (ok) {
        found = true;
        break;
      }
    }

    if (!found) {
      if (li == 0) return true;  // exhausted the outermost level: done
      --li;                      // resume the parent cursor where it was
      continue;
    }
    if (li + 1 == depth) {
      if (!sink(regs)) return false;
      // Stay at this level; keep advancing its cursor.
    } else {
      ++li;
      entering = true;
    }
  }
}

/// True iff the program has at least one match (stops at the first).
/// Distinguishes "no match" from a cancellation abort by checking the
/// found flag: an aborted run reports no match.
bool HasMatch(const JoinProgram& p, const Inputs& in = {});

/// A conjunctive body compiled against one database — the evaluation
/// unit of ConjunctiveQuery and of every disjunct of a compiled FO query.
///
/// The body splits into connected components over shared variables
/// (atoms, comparisons and filters connect their variables; parameters
/// are pre-bound and connect nothing). A component without a head
/// variable needs only one witness and is checked on its own; the others
/// join in one program, each component's atoms greedily ordered.
///
/// `params` are variables bound before the first level (their values
/// arrive through Inputs); they take registers [0, params.size()) and
/// become probe-key components wherever they occur. Each filter, given
/// by its argument terms, becomes a kFilter op at the first level binding
/// all of its variables, after that level's comparisons. Every
/// comparison and filter must mention a variable that some atom binds
/// (constant-only comparisons are resolved here; the caller settles
/// parameter-only conditions before running).
class PreparedJoin {
 public:
  PreparedJoin(const std::vector<Term>& head, const std::vector<Atom>& atoms,
               const std::vector<Comparison>& comparisons,
               const rel::Database& db, const std::vector<int>& params = {},
               const std::vector<std::vector<Term>>& filters = {});

  /// True iff the body has a match (stops at the first).
  bool HasMatch(const Inputs& in = {}) const;

  /// The head rows of all matches, distinct and sorted. Existential
  /// variables are projected away at emit time: rows dedup into one
  /// row-major buffer that leaves sorted (see DESIGN.md §12).
  rel::Relation Collect(const Inputs& in = {}) const;

 private:
  struct HeadPart {
    int reg = -1;  // -1: the constant below
    rel::Value constant;
  };

  size_t arity_ = 0;
  bool never_matches_ = false;  // a constant-only comparison is false
  std::vector<JoinProgram> existential_;  // components without a head var
  JoinProgram main_;                      // the head components, joined
  std::vector<HeadPart> head_parts_;
};

}  // namespace sws::logic::bytecode

#endif  // SWS_LOGIC_BYTECODE_H_
