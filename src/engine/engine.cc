#include "engine/engine.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "chase/fact_dump.h"
#include "datalog/parser.h"
#include "owl/rdf_mapping.h"
#include "rdf/turtle.h"
#include "sparql/parser.h"
#include "translate/owl2ql_program.h"

namespace triq {

namespace {

using chase::Term;
using datalog::Atom;
using datalog::PredicateId;
using datalog::Rule;

/// A program is monotone over already-stored facts when no proper rule
/// negates a body atom (constraints are exempt: they are re-checked in
/// full against the final instance on every run, so negation there
/// cannot leave stale conclusions behind).
bool IsMonotone(const datalog::Program& program) {
  for (const Rule& rule : program.rules()) {
    if (rule.IsConstraint()) continue;
    for (const Atom& atom : rule.body) {
      if (atom.negated) return false;
    }
  }
  return true;
}

chase::SaturatedSizes SnapshotSizes(const chase::Instance& instance) {
  chase::SaturatedSizes sizes;
  for (const auto& [pred, rel] : instance.relations()) {
    sizes[pred] = rel.size();
  }
  return sizes;
}

std::vector<chase::Tuple> ConstantTuples(const chase::Relation* rel) {
  std::vector<chase::Tuple> out;
  if (rel == nullptr) return out;
  for (chase::TupleView tuple : rel->tuples()) {
    bool all_constants =
        std::all_of(tuple.begin(), tuple.end(),
                    [](Term t) { return t.IsConstant(); });
    if (all_constants) out.push_back(tuple.ToTuple());
  }
  return out;
}

}  // namespace

std::string_view EntailmentRegimeName(EntailmentRegime regime) {
  switch (regime) {
    case EntailmentRegime::kNone: return "none";
    case EntailmentRegime::kActiveDomain: return "active-domain";
    case EntailmentRegime::kAll: return "all";
  }
  return "?";
}

chase::ChaseOptions EngineOptions::ToChaseOptions() const {
  chase::ChaseOptions options;
  options.mode = chase_mode;
  options.seminaive = seminaive;
  options.track_provenance = track_provenance;
  options.num_threads = num_threads;
  options.max_facts = max_facts;
  options.max_null_depth = max_null_depth;
  return options;
}

// ---- QueryClaims ------------------------------------------------------

namespace {

void SortUnique(std::vector<PredicateId>* preds) {
  std::sort(preds->begin(), preds->end());
  preds->erase(std::unique(preds->begin(), preds->end()), preds->end());
}

}  // namespace

Status QueryClaims::Acquire(std::vector<PredicateId> heads,
                            std::vector<PredicateId> reads,
                            const datalog::Program& program,
                            PredicateId answer, const Dictionary& dict,
                            Token* token) {
  SortUnique(&heads);
  SortUnique(&reads);
  std::string text = program.ToString();
  text.push_back('\x1f');
  text += std::to_string(answer);
  QueryText query = std::make_shared<const std::string>(std::move(text));
  auto other = [&](const Claim& claim) { return *claim.query != *query; };
  MutexLock lock(mu_);
  // Validate every claim before recording any: a rejected Prepare must
  // leave the registry exactly as it found it.
  for (PredicateId pred : heads) {
    auto it = heads_.find(pred);
    if (it != heads_.end() && other(it->second)) {
      return Status::InvalidArgument(
          "predicate '" + dict.Text(pred) +
          "' is already derived by a different prepared query");
    }
    // Another query reading this predicate would see our facts or not
    // depending on evaluation order — same staleness in the other
    // direction.
    auto reader = reads_.find(pred);
    if (reader != reads_.end() && other(reader->second)) {
      return Status::InvalidArgument(
          "query derives predicate '" + dict.Text(pred) +
          "', which another prepared query reads (evaluation-order "
          "dependent); combine them into one program");
    }
  }
  // Reading another query's derived predicate is just as unsound as the
  // data program doing it: whether those facts exist depends on
  // evaluation order, and a cached evaluation would never see them. A
  // query reading its *own* derived predicates (same text) is
  // ordinary recursion and stays allowed.
  for (PredicateId pred : reads) {
    auto it = heads_.find(pred);
    if (it != heads_.end() && other(it->second)) {
      return Status::InvalidArgument(
          "query reads predicate '" + dict.Text(pred) +
          "', which another prepared query derives (evaluation-order "
          "dependent); combine them into one program");
    }
  }
  for (PredicateId pred : heads) {
    ++heads_.emplace(pred, Claim{query, 0}).first->second.refs;
  }
  for (PredicateId pred : reads) {
    ++reads_.emplace(pred, Claim{query, 0}).first->second.refs;
  }
  token->heads = std::move(heads);
  token->reads = std::move(reads);
  token->query = std::move(query);
  return Status::OK();
}

void QueryClaims::Release(Token* token) {
  if (token->query == nullptr) return;
  MutexLock lock(mu_);
  for (PredicateId pred : token->heads) {
    auto it = heads_.find(pred);
    if (it != heads_.end() && --it->second.refs == 0) heads_.erase(it);
  }
  for (PredicateId pred : token->reads) {
    auto it = reads_.find(pred);
    if (it != reads_.end() && --it->second.refs == 0) reads_.erase(it);
  }
  token->query.reset();
}

bool QueryClaims::HeadClaimed(PredicateId pred) const {
  MutexLock lock(mu_);
  return heads_.count(pred) > 0;
}

// ---- PreparedQuery ----------------------------------------------------

PreparedQuery::~PreparedQuery() {
  // claims_ is null after a move-from; the registry outlives the engine's
  // last snapshot (shared_ptr), so release is safe in either destruction
  // order.
  if (claims_ != nullptr) claims_->Release(&token_);
}

Result<PreparedQuery::Pinned> PreparedQuery::EvaluatePinned(
    chase::ChaseStats* stats) {
  if (stats != nullptr) *stats = chase::ChaseStats{};
  TRIQ_ASSIGN_OR_RETURN(EngineSnapshotPtr snap, engine_->CurrentSnapshot());

  MutexLock lock(eval_->mu);
  if (eval_->snapshot == snap) {
    // Session unchanged since this query last ran: its answers are
    // already derived. Zero chase rounds.
    return Pinned{std::move(snap), eval_->overlay};
  }
  if (query_.program().rules().empty()) {
    // The empty program: the answers are whatever the data program
    // derived — read the snapshot directly.
    eval_->snapshot = snap;
    eval_->overlay = nullptr;
    return Pinned{std::move(snap), nullptr};
  }

  // Chase the query program over a private overlay of the snapshot. The
  // data closure is reused as the frozen base — never re-derived, never
  // mutated — so a failed query chase (caps, deadline, inconsistency)
  // only discards this overlay: the session, and this handle's last good
  // evaluation, stay untouched.
  auto overlay = std::make_shared<chase::Instance>(
      chase::Instance::MakeOverlay(&snap->instance));
  TRIQ_RETURN_IF_ERROR(chase::RunChase(query_.program(), overlay.get(),
                                       engine_->QueryChaseOptions(), stats));
  // Decoders may probe the overlay's indexes from several threads once
  // it is shared; sync them while still private.
  overlay->FreezeAllIndexes();
  eval_->snapshot = snap;
  eval_->overlay = overlay;
  return Pinned{std::move(snap), std::move(overlay)};
}

Result<std::vector<chase::Tuple>> PreparedQuery::Evaluate(
    chase::ChaseStats* stats) {
  TRIQ_ASSIGN_OR_RETURN(Pinned pinned, EvaluatePinned(stats));
  return ConstantTuples(pinned.answers().Find(query_.answer_predicate()));
}

Result<bool> PreparedQuery::Holds(const std::vector<std::string>& tuple) {
  chase::Tuple target;
  target.reserve(tuple.size());
  for (const std::string& text : tuple) {
    target.push_back(Term::Constant(engine_->dict().Intern(text)));
  }
  TRIQ_ASSIGN_OR_RETURN(std::vector<chase::Tuple> answers, Evaluate());
  return std::find(answers.begin(), answers.end(), target) != answers.end();
}

// ---- Engine: construction and loading ---------------------------------

Engine::Engine(EngineOptions options)
    : options_(options),
      dict_(std::make_shared<Dictionary>()),
      base_(dict_),
      program_(dict_),
      claims_(std::make_shared<QueryClaims>()) {
  if (options_.regime != EntailmentRegime::kNone) {
    // The fixed τ_owl2ql_core program (Section 5.2) gives the two
    // reasoning regimes their semantics; materializing it once here is
    // what lets every SPARQL query share one inference closure. Same
    // dictionary by construction, so Append cannot fail.
    TRIQ_IGNORE_STATUS(program_.Append(translate::BuildOwl2QlCoreProgram(dict_)));
    core_rule_prefix_ = program_.rules().size();
  }
  program_monotone_ = IsMonotone(program_);
}

Engine::~Engine() {
  // Best-effort flush of batched appends; nothing to report to.
  if (journal_ != nullptr) TRIQ_IGNORE_STATUS(journal_->Sync());
}

Result<std::unique_ptr<Engine>> Engine::Open(EngineOptions options) {
  auto engine = std::make_unique<Engine>(options);
  if (options.journal_path.empty()) return engine;

  Journal::Recovery recovery;
  TRIQ_ASSIGN_OR_RETURN(
      std::unique_ptr<Journal> journal,
      Journal::Open(options.journal_path, options.journal_fsync,
                    options.journal_batch_interval, &recovery));

  // Rebuild the session with the journal still detached, so replay runs
  // the ordinary mutators without re-appending: first the checkpoint
  // image (base facts, user rules, and the materialized flag), then the
  // tail records in append order.
  if (recovery.has_checkpoint) {
    TRIQ_ASSIGN_OR_RETURN(
        chase::Instance image,
        chase::LoadFactsFromString(recovery.checkpoint_blob, engine->dict_,
                                   "journal checkpoint"));
    TRIQ_RETURN_IF_ERROR(engine->LoadDatabase(std::move(image)));
    if (!recovery.checkpoint_rules.empty()) {
      TRIQ_RETURN_IF_ERROR(engine->AttachRules(recovery.checkpoint_rules));
    }
    if (recovery.checkpoint_materialized) {
      Result<chase::ChaseStats> stats = engine->Materialize();
      if (!stats.ok()) return stats.status();
    }
  }
  for (const Journal::Record& record : recovery.records) {
    TRIQ_RETURN_IF_ERROR(engine->ReplayRecord(record));
  }

  MutexLock lock(engine->writer_mu_);
  engine->journal_recovered_records_ = recovery.records.size();
  engine->journal_truncated_bytes_ = recovery.truncated_bytes;
  engine->journal_ = std::move(journal);
  return engine;
}

Status Engine::ReplayRecord(const Journal::Record& record) {
  auto field = [&](size_t i) -> const std::string& {
    static const std::string kEmpty;
    return i < record.fields.size() ? record.fields[i] : kEmpty;
  };
  switch (record.op) {
    case Journal::Op::kAddTriple:
      if (record.fields.size() != 3) break;
      return AddTriple(field(0), field(1), field(2));
    case Journal::Op::kLoadTurtle:
      if (record.fields.size() != 1) break;
      return LoadTurtle(field(0));
    case Journal::Op::kAttachRules:
      if (record.fields.size() != 1) break;
      return AttachRules(field(0));
    case Journal::Op::kLoadFactsBlob: {
      if (record.fields.size() != 2) break;
      // Field 0 records whether the source shared the engine dictionary:
      // decoding over dict_ then reproduces the original term ids
      // exactly, while a foreign source decodes over a stand-in
      // dictionary (same dense ids as the original foreign one) and
      // re-interns through the same append path as the original call.
      const bool engine_dict = field(0) == "1";
      std::shared_ptr<Dictionary> target =
          engine_dict ? dict_ : std::make_shared<Dictionary>();
      TRIQ_ASSIGN_OR_RETURN(
          chase::Instance loaded,
          chase::LoadFactsFromString(field(1), std::move(target),
                                     "journal record"));
      return LoadDatabase(std::move(loaded));
    }
    case Journal::Op::kMaterialize: {
      Result<chase::ChaseStats> stats = Materialize();
      return stats.ok() ? Status::OK() : stats.status();
    }
  }
  return Status::DataLoss("journal record op " +
                          std::to_string(static_cast<int>(record.op)) +
                          " has malformed fields");
}

Status Engine::JournalOp(Journal::Op op, std::vector<std::string> fields) {
  if (journal_ == nullptr) return Status::OK();
  return journal_->Append(op, fields);
}

chase::ChaseOptions Engine::QueryChaseOptions() const {
  chase::ChaseOptions options = options_.ToChaseOptions();
  if (options_.query_deadline.count() > 0) {
    options.deadline =
        std::chrono::steady_clock::now() + options_.query_deadline;
  }
  return options;
}

Status Engine::AppendFacts(const chase::Instance& src, chase::Instance* dst) {
  const bool foreign = src.dict_ptr().get() != dict_.get();
  // Source nulls are re-allocated in the destination, preserving depths
  // and identity sharing (two occurrences of one source null map to one
  // destination null).
  std::vector<Term> null_map(src.null_count(), Term());
  // Deterministic predicate order: relations() is an unordered map, and
  // null re-allocation order should not depend on its iteration order.
  std::vector<PredicateId> predicates;
  predicates.reserve(src.relations().size());
  for (const auto& [pred, rel] : src.relations()) predicates.push_back(pred);
  std::sort(predicates.begin(), predicates.end());

  chase::Tuple mapped;
  for (PredicateId pred : predicates) {
    const chase::Relation* rel = src.Find(pred);
    PredicateId dst_pred =
        foreign ? dict_->Intern(src.dict().Text(pred)) : pred;
    for (chase::TupleView tuple : rel->tuples()) {
      mapped.clear();
      for (Term t : tuple) {
        if (t.IsNull()) {
          Term& remapped = null_map[t.null_id()];
          if (remapped == Term()) {
            remapped = dst->AllocateNull(src.NullDepth(t));
          }
          mapped.push_back(remapped);
        } else if (foreign) {
          mapped.push_back(
              Term::Constant(dict_->Intern(src.dict().Text(t.symbol()))));
        } else {
          mapped.push_back(t);
        }
      }
      TRIQ_RETURN_IF_ERROR(
          dst->AddFactChecked(dst_pred, mapped).status());
    }
  }
  return Status::OK();
}

Status Engine::CheckLoadable(const chase::Instance& src) const {
  // Every way a load can fail is validated here, BEFORE anything is
  // appended, so a rejected load leaves the session untouched instead of
  // half-applied (AppendFacts iterates predicate by predicate; an error
  // midway would strand the earlier predicates' facts in the base).
  EngineSnapshotPtr snap = std::atomic_load(&snapshot_);
  for (const auto& [pred, rel] : src.relations()) {
    PredicateId engine_pred =
        src.dict_ptr().get() == dict_.get()
            ? pred
            : dict_->Intern(src.dict().Text(pred));
    // Facts may not land in a relation a prepared query derives — its
    // cached evaluation would silently coexist with them.
    if (claims_->HeadClaimed(engine_pred)) {
      return Status::InvalidArgument(
          "cannot load facts for predicate '" + dict_->Text(engine_pred) +
          "': it is derived by a prepared query");
    }
    // Arity mismatches are the one way AddFactChecked can fail below.
    for (const chase::Instance* dst :
         {&base_, snap != nullptr ? &snap->instance : nullptr}) {
      if (dst == nullptr) continue;
      const chase::Relation* existing = dst->Find(engine_pred);
      if (existing != nullptr && existing->arity() != rel.arity()) {
        return Status::InvalidArgument(
            "cannot load facts for predicate '" + dict_->Text(engine_pred) +
            "': width " + std::to_string(rel.arity()) +
            " conflicts with the existing relation's arity " +
            std::to_string(existing->arity()));
      }
    }
  }
  return Status::OK();
}

Status Engine::Ingest(const chase::Instance& src) {
  TRIQ_RETURN_IF_ERROR(CheckLoadable(src));
  return IngestValidated(src);
}

Status Engine::IngestValidated(const chase::Instance& src) {
  TRIQ_RETURN_IF_ERROR(AppendFacts(src, &base_));
  // Only a successful load dirties the session: a rejected one left the
  // base untouched, so the published closure is still exact.
  needs_materialize_.store(true, std::memory_order_release);
  return Status::OK();
}

Status Engine::IngestJournaled(const chase::Instance& src) {
  // WAL ordering: validate, journal, apply. A record lands in the
  // journal only for a mutation that will succeed, and a mutation
  // applies only once its record is written — so recovery replay is
  // exactly the applied prefix of the op sequence.
  TRIQ_RETURN_IF_ERROR(CheckLoadable(src));
  if (journal_ != nullptr) {
    std::string blob;
    TRIQ_RETURN_IF_ERROR(chase::SaveFactsToString(src, &blob));
    const bool engine_dict = src.dict_ptr().get() == dict_.get();
    TRIQ_RETURN_IF_ERROR(
        JournalOp(Journal::Op::kLoadFactsBlob,
                  {engine_dict ? "1" : "0", std::move(blob)}));
  }
  return IngestValidated(src);
}

Status Engine::LoadTurtle(std::string_view text) {
  rdf::Graph graph(dict_);
  TRIQ_RETURN_IF_ERROR(rdf::ParseTurtle(text, &graph));
  MutexLock lock(writer_mu_);
  chase::Instance src = chase::Instance::FromGraph(graph);
  TRIQ_RETURN_IF_ERROR(CheckLoadable(src));
  TRIQ_RETURN_IF_ERROR(
      JournalOp(Journal::Op::kLoadTurtle, {std::string(text)}));
  return IngestValidated(src);
}

Status Engine::LoadTurtleFile(const std::string& path) {
  if (journal_ != nullptr) {
    // The journal must capture the file's *content* (the file may be
    // rewritten or gone by recovery time), so the journaled session
    // trades the streaming parse for an in-memory one.
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::InvalidArgument("cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return LoadTurtle(buf.str());
  }
  std::ifstream in(path);
  if (!in) {
    return Status::InvalidArgument("cannot open " + path);
  }
  rdf::Graph graph(dict_);
  TRIQ_RETURN_IF_ERROR(rdf::ParseTurtleStream(in, &graph));
  MutexLock lock(writer_mu_);
  return Ingest(chase::Instance::FromGraph(graph));
}

Status Engine::LoadFacts(const std::string& path) {
  if (journal_ != nullptr) {
    // Journal the dump image itself: replay decodes the same bytes over
    // the engine dictionary, reproducing this load exactly.
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::InvalidArgument("cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string bytes = buf.str();
    TRIQ_ASSIGN_OR_RETURN(chase::Instance loaded,
                          chase::LoadFactsFromString(bytes, dict_, path));
    MutexLock lock(writer_mu_);
    return LoadDatabaseLocked(std::move(loaded), &bytes);
  }
  // LoadFacts interns straight into the engine dictionary, so the merge
  // below sees no foreign symbols — only nulls need re-allocation.
  TRIQ_ASSIGN_OR_RETURN(chase::Instance loaded,
                        chase::LoadFacts(path, dict_));
  return LoadDatabase(std::move(loaded));
}

Status Engine::LoadDatabase(chase::Instance database) {
  MutexLock lock(writer_mu_);
  return LoadDatabaseLocked(std::move(database), nullptr);
}

Status Engine::LoadDatabaseLocked(chase::Instance database,
                                  const std::string* raw_dump) {
  if (database.dict_ptr().get() == dict_.get() &&
      std::atomic_load(&snapshot_) == nullptr && base_.TotalFacts() == 0 &&
      base_.null_count() == 0) {
    // Empty session: adopt the storage wholesale (claims still apply —
    // queries may be prepared before any facts arrive).
    TRIQ_RETURN_IF_ERROR(CheckLoadable(database));
    if (journal_ != nullptr) {
      std::string blob;
      if (raw_dump == nullptr) {
        TRIQ_RETURN_IF_ERROR(chase::SaveFactsToString(database, &blob));
        raw_dump = &blob;
      }
      TRIQ_RETURN_IF_ERROR(
          JournalOp(Journal::Op::kLoadFactsBlob, {"1", *raw_dump}));
    }
    base_ = std::move(database);
    return Status::OK();
  }
  return IngestJournaled(database);
}

Status Engine::LoadGraph(const rdf::Graph& graph) {
  MutexLock lock(writer_mu_);
  return IngestJournaled(chase::Instance::FromGraph(graph));
}

Status Engine::AddTriple(std::string_view subject, std::string_view predicate,
                         std::string_view object) {
  rdf::Graph graph(dict_);
  graph.Add(subject, predicate, object);
  MutexLock lock(writer_mu_);
  chase::Instance src = chase::Instance::FromGraph(graph);
  TRIQ_RETURN_IF_ERROR(CheckLoadable(src));
  TRIQ_RETURN_IF_ERROR(JournalOp(
      Journal::Op::kAddTriple,
      {std::string(subject), std::string(predicate), std::string(object)}));
  return IngestValidated(src);
}

// ---- Engine: ontologies and rule programs ------------------------------

Status Engine::AttachOntology(const owl::Ontology& ontology) {
  rdf::Graph graph(dict_);
  owl::OntologyToGraph(ontology, &graph);
  MutexLock lock(writer_mu_);
  return IngestJournaled(chase::Instance::FromGraph(graph));
}

Status Engine::AttachProgram(const datalog::Program& program) {
  if (program.dict_ptr().get() != dict_.get()) {
    return Status::InvalidArgument(
        "attached programs must be built over the engine dictionary "
        "(Engine::dict_ptr())");
  }
  MutexLock lock(writer_mu_);
  for (const Rule& rule : program.rules()) {
    auto claimed = [&](const Atom& atom) {
      return claims_->HeadClaimed(atom.predicate);
    };
    if (std::any_of(rule.body.begin(), rule.body.end(), claimed) ||
        std::any_of(rule.head.begin(), rule.head.end(), claimed)) {
      return Status::InvalidArgument(
          "the attached rules mention a predicate derived by a prepared "
          "query; rename it (query-derived relations never feed the data "
          "program)");
    }
  }
  if (journal_ != nullptr || !options_.journal_path.empty()) {
    // ToString() emits parseable datalog syntax, so replaying the
    // record through AttachRules reattaches exactly these rules.
    std::string text = program.ToString();
    TRIQ_RETURN_IF_ERROR(JournalOp(Journal::Op::kAttachRules, {text}));
    journal_rules_text_ += text;
  }
  TRIQ_RETURN_IF_ERROR(program_.Append(program));
  program_monotone_ = IsMonotone(program_);
  // New rules invalidate the published closure, and the next
  // materialization must restart from the pristine base: the appended
  // rules may derive through facts the old program already consumed.
  rules_dirty_ = true;
  needs_materialize_.store(true, std::memory_order_release);
  return Status::OK();
}

Status Engine::AttachRules(std::string_view rule_text) {
  TRIQ_ASSIGN_OR_RETURN(datalog::Program program,
                        datalog::ParseProgram(rule_text, dict_));
  return AttachProgram(program);
}

// ---- Engine: materialization -------------------------------------------

Status Engine::AppendBaseDelta(chase::Instance* next,
                               std::vector<Term>* null_map) {
  // Base nulls first seen in this delta get fresh snapshot nulls; nulls
  // shared with already-consumed facts reuse their committed mapping, so
  // identity sharing across deltas is preserved.
  null_map->resize(base_.null_count(), Term());
  std::vector<PredicateId> predicates;
  predicates.reserve(base_.relations().size());
  for (const auto& [pred, rel] : base_.relations()) predicates.push_back(pred);
  std::sort(predicates.begin(), predicates.end());

  chase::Tuple mapped;
  for (PredicateId pred : predicates) {
    const chase::Relation* rel = base_.Find(pred);
    auto it = base_consumed_.find(pred);
    const size_t from = it != base_consumed_.end() ? it->second : 0;
    for (size_t i = from; i < rel->size(); ++i) {
      chase::TupleView tuple = rel->tuple(static_cast<uint32_t>(i));
      mapped.clear();
      for (Term t : tuple) {
        if (t.IsNull()) {
          Term& remapped = (*null_map)[t.null_id()];
          if (remapped == Term()) {
            remapped = next->AllocateNull(base_.NullDepth(t));
          }
          mapped.push_back(remapped);
        } else {
          mapped.push_back(t);
        }
      }
      TRIQ_RETURN_IF_ERROR(next->AddFactChecked(pred, mapped).status());
    }
  }
  return Status::OK();
}

Status Engine::MaterializeLocked(chase::ChaseStats* stats) {
  const chase::ChaseOptions options = chase_options();
  TRIQ_RETURN_IF_ERROR(chase::ValidateChaseOptions(options));
  if (IsMaterialized()) return Status::OK();  // clean: nothing to do

  if (options_.require_termination_guarantee) {
    // Gate before any chase round: a program the analyzer cannot prove
    // terminating is rejected outright, witness cycle attached.
    analysis::TerminationVerdict verdict =
        analysis::AnalyzeTermination(program_);
    if (verdict.termination != analysis::Termination::kGuaranteedTerminating) {
      std::string message =
          "termination guarantee required, but static analysis cannot prove "
          "the data program's chase terminates";
      if (!verdict.witness.empty()) message += ": " + verdict.witness;
      return Status::InvalidArgument(message);
    }
  }

  EngineSnapshotPtr prev = std::atomic_load(&snapshot_);
  // Incremental re-saturation resumes the published closure with exactly
  // the appended base facts as the delta. Soundness needs monotonicity
  // (ResumeChase's contract) and an unchanged rule set; provenance
  // sessions always rebuild, because CloneFacts drops the derivation
  // records proof extraction needs.
  const bool incremental = prev != nullptr && !rules_dirty_ &&
                           program_monotone_ && options.seminaive &&
                           !options.track_provenance;
  chase::Instance next(dict_);
  std::vector<Term> null_map;
  Status status;
  if (incremental) {
    next = prev->instance.CloneFacts();
    null_map = base_null_map_;
    status = AppendBaseDelta(&next, &null_map);
    if (status.ok()) {
      status = chase::ResumeChase(program_, &next, prev->saturated, options,
                                  stats);
    }
  } else {
    // Rebuild from the pristine base: the clone keeps base null ids, so
    // the base -> snapshot null mapping is the identity.
    next = base_.CloneFacts();
    null_map.reserve(base_.null_count());
    for (uint32_t i = 0; i < base_.null_count(); ++i) {
      null_map.push_back(Term::Null(i));
    }
    status = chase::RunChase(program_, &next, options, stats);
  }
  if (!status.ok()) {
    // Publish nothing: the previous snapshot keeps serving, and the
    // session stays dirty so the next operation retries.
    return status;
  }

  // Counters move together, and only for completed materializations — a
  // failing session retried N times must not drift rebuilds() ahead of
  // materializations().
  if (!incremental) rebuild_count_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t generation =
      materialize_count_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Freeze every permutation index while the instance is still private:
  // after publication any number of readers may probe them, and a lazy
  // first sort under concurrent readers would be a race.
  next.FreezeAllIndexes();
  chase::SaturatedSizes saturated = SnapshotSizes(next);
  auto snap = std::make_shared<const EngineSnapshot>(
      std::move(next), std::move(saturated), generation);
  base_consumed_ = SnapshotSizes(base_);
  base_null_map_ = std::move(null_map);
  rules_dirty_ = false;
  std::atomic_store(&snapshot_,
                    EngineSnapshotPtr(std::move(snap)));
  needs_materialize_.store(false, std::memory_order_release);
  if (journal_ != nullptr) {
    // Compact: a materialization subsumes the whole journaled history,
    // so checkpoint the pristine base + rules and reset the journal.
    // kMaterialize lands first so a crash *during* the checkpoint still
    // replays the materialization from the old journal. A checkpoint
    // failure is surfaced but the closure above stays published — the
    // session is consistent, merely un-compacted (or, on _Exit
    // failpoints, recomputable from the previous checkpoint).
    TRIQ_RETURN_IF_ERROR(JournalOp(Journal::Op::kMaterialize, {}));
    std::string blob;
    TRIQ_RETURN_IF_ERROR(chase::SaveFactsToString(base_, &blob));
    TRIQ_RETURN_IF_ERROR(
        journal_->Checkpoint(journal_rules_text_, blob, true));
  }
  return Status::OK();
}

Result<chase::ChaseStats> Engine::Materialize() {
  MutexLock lock(writer_mu_);
  chase::ChaseStats stats;
  TRIQ_RETURN_IF_ERROR(MaterializeLocked(&stats));
  return stats;
}

Result<EngineSnapshotPtr> Engine::CurrentSnapshot() {
  // Fast path: a clean session serves the published snapshot with one
  // acquire load and one shared_ptr copy — no locks.
  if (!needs_materialize_.load(std::memory_order_acquire)) {
    return std::atomic_load(&snapshot_);
  }
  if (!writer_mu_.try_lock()) {
    // Another thread is writing (loading or re-materializing). Serve the
    // latest published snapshot — consistent, possibly one version
    // behind — instead of stalling every reader behind the writer. The
    // writing thread itself still observes its own writes: its next read
    // acquires the lock uncontended.
    EngineSnapshotPtr published = std::atomic_load(&snapshot_);
    if (published != nullptr) return published;
    writer_mu_.lock();  // nothing published yet: wait for the first closure
  }
  MutexLock lock(writer_mu_, kAdoptLock);
  TRIQ_RETURN_IF_ERROR(MaterializeLocked(nullptr));
  return std::atomic_load(&snapshot_);
}

Result<const chase::Instance*> Engine::MaterializedInstance() {
  TRIQ_ASSIGN_OR_RETURN(EngineSnapshotPtr snap, CurrentSnapshot());
  // The engine's own snapshot_ reference keeps the instance alive until
  // the next publication.
  return &snap->instance;
}

Result<std::vector<chase::Tuple>> Engine::Answers(
    std::string_view predicate) {
  TRIQ_ASSIGN_OR_RETURN(EngineSnapshotPtr snap, CurrentSnapshot());
  return ConstantTuples(snap->instance.Find(predicate));
}

EngineStats Engine::stats() const {
  EngineStats out;
  out.materializations = materialize_count_.load(std::memory_order_relaxed);
  out.rebuilds = rebuild_count_.load(std::memory_order_relaxed);
  out.sparql_cache_hits = sparql_cache_hits_.load(std::memory_order_relaxed);
  out.sparql_cache_misses =
      sparql_cache_misses_.load(std::memory_order_relaxed);
  out.sparql_cache_evictions =
      sparql_cache_evictions_.load(std::memory_order_relaxed);
  if (journal_ != nullptr) {
    // journal_ is set once inside Open before the engine is shared, so
    // this lock-free read is safe; the stats themselves are atomics.
    out.journal_enabled = true;
    JournalStats js = journal_->stats();
    out.journal_records = js.records_appended;
    out.journal_bytes = js.bytes_appended;
    out.journal_syncs = js.syncs;
    out.journal_checkpoints = js.checkpoints;
    out.journal_recovered_records = journal_recovered_records_;
    out.journal_truncated_bytes = journal_truncated_bytes_;
  }
  MutexLock lock(cache_mu_);
  out.sparql_cache_size = sparql_lru_.size();
  return out;
}

analysis::ProgramAnalysis Engine::AnalyzeProgram(
    const std::vector<std::string>& output_predicates) const {
  MutexLock lock(writer_mu_);
  analysis::LintOptions lint;
  lint.edb_known = true;
  for (const auto& [pred, rel] : base_.relations()) {
    lint.edb_predicates.insert(pred);
  }
  for (const std::string& name : output_predicates) {
    lint.output_predicates.insert(dict_->Intern(name));
  }
  lint.exempt_prefix = core_rule_prefix_;
  // The shadow program is built over a private dictionary —
  // CanonicalRuleText compares structure, not symbol ids — so analysis
  // never interns core vocabulary into a kNone session.
  datalog::Program shadow(std::make_shared<Dictionary>());
  if (options_.regime != EntailmentRegime::kNone) {
    shadow = translate::BuildOwl2QlCoreProgram(shadow.dict_ptr());
    lint.shadow_program = &shadow;
  }
  return analysis::Analyze(program_, lint);
}

// ---- Engine: queries ---------------------------------------------------

Result<PreparedQuery> Engine::PrepareInternal(
    datalog::Program program, std::string_view answer_predicate) {
  if (program.dict_ptr().get() != dict_.get()) {
    return Status::InvalidArgument(
        "prepared programs must be built over the engine dictionary "
        "(Engine::dict_ptr())");
  }
  TRIQ_ASSIGN_OR_RETURN(
      core::TriqQuery query,
      core::TriqQuery::Create(std::move(program), answer_predicate));

  MutexLock lock(writer_mu_);
  // The query's derived (head) predicates must be disjoint from the data
  // program and the loaded facts: its rules run *after* the data closure
  // is already fixed, so feeding data rules from them would silently
  // under-derive. The claim registry then validates query-vs-query
  // conflicts, in full, before recording anything.
  std::unordered_set<PredicateId> data_predicates = program_.Predicates();
  std::vector<PredicateId> heads, reads;
  for (const Rule& rule : query.program().rules()) {
    for (const Atom& head : rule.head) heads.push_back(head.predicate);
    for (const Atom& atom : rule.body) reads.push_back(atom.predicate);
  }
  for (PredicateId pred : heads) {
    if (data_predicates.count(pred) > 0) {
      return Status::InvalidArgument(
          "query derives predicate '" + dict_->Text(pred) +
          "', which the data program mentions; AttachProgram the rules "
          "instead");
    }
    if (base_.Find(pred) != nullptr) {
      return Status::InvalidArgument(
          "query derives predicate '" + dict_->Text(pred) +
          "', which has loaded facts");
    }
  }
  QueryClaims::Token token;
  TRIQ_RETURN_IF_ERROR(claims_->Acquire(std::move(heads), std::move(reads),
                                        query.program(),
                                        query.answer_predicate(), *dict_,
                                        &token));
  return PreparedQuery(this, std::move(query), claims_, std::move(token));
}

Result<PreparedQuery> Engine::Prepare(datalog::Program program,
                                      std::string_view answer_predicate) {
  return PrepareInternal(std::move(program), answer_predicate);
}

Result<PreparedQuery> Engine::Prepare(std::string_view rule_text,
                                      std::string_view answer_predicate) {
  if (rule_text.find_first_not_of(" \t\r\n") == std::string_view::npos) {
    // The empty program: evaluation reads the answer relation the data
    // program derives.
    return PrepareInternal(datalog::Program(dict_), answer_predicate);
  }
  TRIQ_ASSIGN_OR_RETURN(datalog::Program program,
                        datalog::ParseProgram(rule_text, dict_));
  return PrepareInternal(std::move(program), answer_predicate);
}

// ---- Engine: SPARQL ----------------------------------------------------

/// One cached SPARQL plan: the translation (for answer decoding), the
/// prepared query (whose own eval state caches the per-snapshot
/// overlay), and the decoded mappings of the snapshot they were last
/// decoded against. Shared (not owned) by the LRU so in-flight
/// evaluations survive eviction.
struct Engine::SparqlEntry {
  SparqlEntry(translate::TranslatedQuery t, PreparedQuery p)
      : translated(std::move(t)), prepared(std::move(p)) {}

  translate::TranslatedQuery translated;
  PreparedQuery prepared;

  Mutex mu;
  EngineSnapshotPtr snapshot TRIQ_GUARDED_BY(mu);
  sparql::MappingSet mappings TRIQ_GUARDED_BY(mu);
};

Result<sparql::MappingSet> Engine::Query(const std::string& sparql_text) {
  std::shared_ptr<SparqlEntry> entry;
  {
    MutexLock lock(cache_mu_);
    auto it = sparql_index_.find(std::string_view(sparql_text));
    if (it != sparql_index_.end()) {
      sparql_lru_.splice(sparql_lru_.begin(), sparql_lru_, it->second);
      entry = sparql_lru_.front().second;
      sparql_cache_hits_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  if (entry == nullptr) {
    sparql_cache_misses_.fetch_add(1, std::memory_order_relaxed);
    // Build the plan outside cache_mu_: parsing, translation and claim
    // acquisition are slow, and concurrent queries for other texts must
    // not serialize behind them.
    TRIQ_ASSIGN_OR_RETURN(auto pattern,
                          sparql::ParsePattern(sparql_text, dict_.get()));
    TRIQ_ASSIGN_OR_RETURN(
        translate::TranslatedQuery translated,
        TranslatePattern(*pattern, dict_, QueryTranslationOptions()));
    datalog::Program query_program = std::move(translated.program);
    translated.program = datalog::Program(dict_);
    TRIQ_ASSIGN_OR_RETURN(
        PreparedQuery prepared,
        PrepareInternal(std::move(query_program),
                        dict_->Text(translated.answer_predicate)));
    auto built = std::make_shared<SparqlEntry>(std::move(translated),
                                               std::move(prepared));

    MutexLock lock(cache_mu_);
    auto it = sparql_index_.find(std::string_view(sparql_text));
    if (it != sparql_index_.end()) {
      // Two threads raced on the same miss: adopt the winner's entry and
      // drop ours (its claims are refcounted under the same query text,
      // so releasing them leaves the winner's intact).
      sparql_lru_.splice(sparql_lru_.begin(), sparql_lru_, it->second);
      entry = sparql_lru_.front().second;
    } else {
      sparql_lru_.emplace_front(sparql_text, std::move(built));
      sparql_index_.emplace(std::string_view(sparql_lru_.front().first),
                            sparql_lru_.begin());
      entry = sparql_lru_.front().second;
      if (options_.sparql_cache_capacity > 0 &&
          sparql_lru_.size() > options_.sparql_cache_capacity) {
        sparql_index_.erase(std::string_view(sparql_lru_.back().first));
        sparql_lru_.pop_back();  // in-flight holders keep it alive
        sparql_cache_evictions_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  TRIQ_ASSIGN_OR_RETURN(PreparedQuery::Pinned pinned,
                        entry->prepared.EvaluatePinned(nullptr));
  MutexLock lock(entry->mu);
  if (entry->snapshot != pinned.snapshot) {
    // First decode against this snapshot; later hits on an unchanged
    // session return the cached mappings without touching the overlay.
    entry->mappings = AnswersToMappings(entry->translated, pinned.answers());
    entry->snapshot = pinned.snapshot;
  }
  return entry->mappings;
}

// ---- Engine: explain ---------------------------------------------------

translate::TranslationOptions Engine::QueryTranslationOptions() const {
  translate::TranslationOptions translation;
  switch (options_.regime) {
    case EntailmentRegime::kNone:
      translation.regime = translate::Regime::kPlain;
      break;
    case EntailmentRegime::kActiveDomain:
      translation.regime = translate::Regime::kActiveDomain;
      break;
    case EntailmentRegime::kAll:
      translation.regime = translate::Regime::kAll;
      break;
  }
  // τ_owl2ql_core is part of the engine's data program (attached at
  // construction under a reasoning regime) and is materialized once —
  // the per-query program carries only the pattern's own rules.
  translation.include_owl2ql_core = false;
  return translation;
}

Result<std::string> Engine::ExplainProgram() {
  TRIQ_ASSIGN_OR_RETURN(EngineSnapshotPtr snap, CurrentSnapshot());
  // program_ is writer-side state; the snapshot's instance is immutable.
  MutexLock lock(writer_mu_);
  return chase::ExplainProgramPlans(program_, snap->instance,
                                    chase_options());
}

Result<std::string> Engine::ExplainQuery(const std::string& sparql_text) {
  TRIQ_ASSIGN_OR_RETURN(EngineSnapshotPtr snap, CurrentSnapshot());
  // Parse + translate only — no claim acquisition and no plan-cache
  // entry: EXPLAIN must not affect (or be limited by) query execution
  // state. The translated program's plans are costed against the
  // materialized snapshot the query would actually join over.
  TRIQ_ASSIGN_OR_RETURN(auto pattern,
                        sparql::ParsePattern(sparql_text, dict_.get()));
  TRIQ_ASSIGN_OR_RETURN(
      translate::TranslatedQuery translated,
      TranslatePattern(*pattern, dict_, QueryTranslationOptions()));
  return chase::ExplainProgramPlans(translated.program, snap->instance,
                                    QueryChaseOptions());
}

}  // namespace triq
