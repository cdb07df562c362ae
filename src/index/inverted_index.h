// A minimal in-memory inverted index (Witten, Moffat & Bell [23] style).
//
// This is the substrate the paper's motivating applications sit on: "for
// each term t, the inverted index stores a sorted list of all document IDs
// containing t".  The examples (mini search engine, faceted product
// filtering) build an index over an fsi::Engine and evaluate conjunctive
// queries through it — demonstrating the library's intended integration
// point: posting lists are pre-processed once at index build time
// (Engine::Prepare), queries intersect the owning PreparedSet handles.

#ifndef FSI_INDEX_INVERTED_INDEX_H_
#define FSI_INDEX_INVERTED_INDEX_H_

#include <cstddef>
#include <deque>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/batch_runner.h"
#include "api/engine.h"

namespace fsi {

/// Inverted index over string terms with a pluggable intersection engine.
///
/// The lifecycle (the README's "index lifecycle" section walks the same
/// stages with examples):
///
///  1. Build — AddDocument* accumulates postings, then exactly one of:
///      * Finalize(): every posting list is pre-processed once
///        (Engine::Prepare, the paper's preprocessing stage); the index
///        is read-only and fully thread-safe for queries, or
///      * FinalizeUpdatable(): posting lists become *mutable* prepared
///        sets — InsertDocument/EraseDocument then apply term-document
///        updates concurrently with lock-free readers (see
///        docs/ARCHITECTURE.md, "Mutability & epochs", for the snapshot
///        semantics each query gets).
///  2. Query — Query/CountMatching intersect the query terms' postings
///     on the calling thread; BatchMatch/BatchCount run a whole query
///     log concurrently via fsi::BatchRunner, bitwise-identical to the
///     serial loop.
///  3. Persist — Save() writes one snapshot file (engine image + term
///     dictionary); Open() mmap-loads it back zero-copy, skipping the
///     whole build, with updatable indexes round-tripping updatable
///     (docs/PERSISTENCE.md).
///
/// For a serving tier with per-query deadlines and admission control,
/// feed per-term postings into a ShardedEngine instead
/// (serve/sharded_engine.h, docs/SERVING.md) — examples/search_server.cpp
/// shows that deployment shape.
class InvertedIndex {
 public:
  /// Zero-config: the cost-model planner picks the intersection algorithm
  /// per query (Engine's default path, api/planner.h).
  InvertedIndex() : InvertedIndex(Engine()) {}

  /// The engine pre-processes every posting list at Finalize() time and
  /// answers the conjunctive queries.  Copying an Engine shares its
  /// algorithm instance, so the index owns everything it needs — no
  /// external lifetime requirements.
  explicit InvertedIndex(Engine engine) : engine_(std::move(engine)) {}

  /// Adds a document; doc ids must be strictly increasing across calls.
  void AddDocument(Elem doc_id, std::span<const std::string> terms);

  /// Builds the per-term structures.  Must be called once, after all
  /// AddDocument calls and before any query.
  void Finalize();

  /// Like Finalize(), but builds every posting list as a *mutable*
  /// prepared set (Engine::PrepareMutable): InsertDocument/EraseDocument
  /// may then run concurrently with queries.  Costs one extra copy of the
  /// posting elements per term only when the engine's structure keeps no
  /// sorted elements of its own (see Engine::PrepareMutable).
  void FinalizeUpdatable(MutableSetOptions options = {});

  /// Bulk term-document update: adds `doc_id` to the posting list of every
  /// term (creating postings for unseen terms).  Requires
  /// FinalizeUpdatable; safe concurrently with queries and with other
  /// updates.  Unlike AddDocument, doc ids may arrive in any order.
  /// Returns the number of posting lists that actually changed.
  /// Note: num_documents() keeps counting AddDocument builds only.
  std::size_t InsertDocument(Elem doc_id, std::span<const std::string> terms);

  /// Bulk term-document update: removes `doc_id` from the posting list of
  /// every listed term (the caller supplies the document's terms — the
  /// index stores no forward mapping).  Unknown terms and absent ids are
  /// skipped.  Requires FinalizeUpdatable; safe concurrently with queries
  /// and other updates.  Returns the number of posting lists changed.
  std::size_t EraseDocument(Elem doc_id, std::span<const std::string> terms);

  /// Conjunctive query: documents containing *all* terms, in document-id
  /// order.  Unknown terms yield an empty result.  When `stats` is
  /// non-null it receives the per-query measurements.
  ElemList Query(std::span<const std::string> terms,
                 QueryStats* stats = nullptr) const;

  /// Count-only conjunctive query: how many documents match, without
  /// materializing them (the "result size estimation" workload).
  std::size_t CountMatching(std::span<const std::string> terms) const;

  // Boolean queries beyond conjunction, evaluated through the expression
  // algebra (api/expr.h): the engine's optimizer rewrites and orders the
  // tree, and results memoize in the engine's ExprCache.

  /// Disjunctive query: documents containing *any* of the terms, in
  /// document-id order.  Unknown terms are dropped (they match nothing);
  /// no known terms yields an empty result.
  ElemList QueryAny(std::span<const std::string> terms,
                    QueryStats* stats = nullptr) const;

  /// t-of-k query: documents containing at least `min_terms` of the given
  /// terms (listed terms count with multiplicity, matching
  /// Expr::AtLeast).  Unknown terms are dropped; fewer known terms than
  /// `min_terms` yields an empty result.  Throws std::invalid_argument
  /// when `min_terms` is 0.
  ElemList QueryAtLeast(std::span<const std::string> terms,
                        std::size_t min_terms,
                        QueryStats* stats = nullptr) const;

  /// Difference query: documents containing *all* `include` terms and
  /// *none* of the `exclude` terms.  An unknown include term yields an
  /// empty result (as Query does); unknown exclude terms are dropped.
  ElemList QueryExcluding(std::span<const std::string> include,
                          std::span<const std::string> exclude,
                          QueryStats* stats = nullptr) const;

  /// A batch of conjunctive term queries (a query log).
  using TermQueries = std::span<const std::vector<std::string>>;

  /// Executes a query log concurrently via fsi::BatchRunner: per-query
  /// result vectors, index-aligned with `queries`.  Queries containing an
  /// unknown term yield an empty result (as Query does).  Results are
  /// identical to looping Query() single-threaded.  When `stats` is
  /// non-null it receives the merged batch statistics.
  std::vector<ElemList> BatchMatch(TermQueries queries,
                                   BatchOptions options = {},
                                   BatchStats* stats = nullptr) const;

  /// Count-only batch: per-query match counts without handing out
  /// document lists (results land in per-worker scratch buffers),
  /// executed concurrently.
  std::vector<std::size_t> BatchCount(TermQueries queries,
                                      BatchOptions options = {},
                                      BatchStats* stats = nullptr) const;

  /// Document frequency of a term (0 if unknown).  Delta-aware on an
  /// updatable index: reflects InsertDocument/EraseDocument immediately.
  std::size_t DocumentFrequency(std::string_view term) const;

  std::size_t num_terms() const;
  std::size_t num_documents() const { return num_documents_; }
  const Engine& engine() const { return engine_; }
  /// Whether FinalizeUpdatable built the index (updates allowed).
  bool updatable() const { return updatable_; }

  /// Total index footprint in 64-bit words (pre-processed structures).
  std::size_t SizeInWords() const;

  // Snapshot persistence (docs/PERSISTENCE.md): one versioned file
  // holding the engine image (every per-term structure + planner
  // calibration) plus the term dictionary, so a process restart skips the
  // whole build — Open() mmaps the file and queries run zero-copy against
  // the mapping.

  /// Saves the finalized index to `path`.  Requires Finalize() or
  /// FinalizeUpdatable() first (throws std::logic_error otherwise); safe
  /// concurrently with queries and updates (updatable posting lists are
  /// saved as a consistent per-term snapshot).
  void Save(const std::string& path) const;

  /// Loads an index saved by Save().  The engine, per-term structures,
  /// dictionary and update mode are reconstructed; an updatable index
  /// comes back updatable (frozen bases + empty deltas).  When `info` is
  /// non-null it receives the load report.  Throws
  /// storage::SnapshotError on anything malformed.
  static InvertedIndex Open(const std::string& path,
                            SnapshotLoadOptions options = {},
                            SnapshotInfo* info = nullptr);

 private:
  /// The Open() tail: adopts a loaded engine image and rebuilds the
  /// dictionary from the term-table section.  Private so the only path in
  /// is Open() — and a prvalue return, since the shared_mutex member
  /// makes the class immovable.
  InvertedIndex(LoadedSnapshot&& loaded,
                std::span<const std::byte> term_table,
                SnapshotLoadOptions options);

  /// Resolves terms to prepared-set handles; false when a term is unknown.
  bool Resolve(std::span<const std::string> terms,
               std::vector<const PreparedSet*>* sets) const;

  /// Resolves terms to expression leaves, dropping unknown terms.
  /// Expr::Set copies the handle, so the leaves outlive the lock.
  std::vector<Expr> ResolveLeaves(std::span<const std::string> terms) const;

  /// Resolves a query log into `resolved` (skipping empty/unknown-term
  /// queries) and returns the origin map: resolved slot -> query index.
  std::vector<std::size_t> ResolveBatch(
      TermQueries queries, std::vector<BatchQuery>* resolved) const;

  Engine engine_;
  /// Guards dictionary_ / postings_ / structures_ *membership* against
  /// InsertDocument's new-term growth: updates take it exclusive, query
  /// resolution shared.  PreparedSet handles themselves are internally
  /// synchronized (mutable sets), and a std::deque never invalidates
  /// references on push_back — so resolved `const PreparedSet*` pointers
  /// stay valid outside the lock, for as long as the index lives.
  mutable std::shared_mutex membership_mutex_;
  std::unordered_map<std::string, std::size_t> dictionary_;
  /// The raw posting lists, built by AddDocument and released by
  /// Finalize: from then on structures_ alone holds every term's set.
  std::vector<ElemList> postings_;
  std::deque<PreparedSet> structures_;
  MutableSetOptions mutable_options_;
  std::size_t num_documents_ = 0;
  Elem last_doc_id_ = 0;
  bool has_docs_ = false;
  bool finalized_ = false;
  bool updatable_ = false;
};

}  // namespace fsi

#endif  // FSI_INDEX_INVERTED_INDEX_H_
