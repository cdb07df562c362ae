#include "index/inverted_index.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <mutex>
#include <stdexcept>

#include "api/expr.h"
#include "storage/layout.h"
#include "storage/mapped_file.h"
#include "storage/snapshot.h"

namespace fsi {

void InvertedIndex::AddDocument(Elem doc_id,
                                std::span<const std::string> terms) {
  if (finalized_) {
    throw std::logic_error("InvertedIndex: AddDocument after Finalize");
  }
  if (has_docs_ && doc_id <= last_doc_id_) {
    throw std::invalid_argument(
        "InvertedIndex: doc ids must be strictly increasing");
  }
  last_doc_id_ = doc_id;
  has_docs_ = true;
  ++num_documents_;
  for (const std::string& term : terms) {
    auto [it, inserted] = dictionary_.try_emplace(term, postings_.size());
    if (inserted) postings_.emplace_back();
    ElemList& list = postings_[it->second];
    if (list.empty() || list.back() != doc_id) list.push_back(doc_id);
  }
}

void InvertedIndex::Finalize() {
  if (finalized_) throw std::logic_error("InvertedIndex: double Finalize");
  // PrepareBatch sees all postings at once, so under a space budget the
  // representation choice is the global greedy split, not first-come
  // (with no budget it degenerates to a Prepare loop).
  std::vector<PreparedSet> prepared =
      engine_.PrepareBatch(std::span<const ElemList>(postings_));
  for (PreparedSet& s : prepared) structures_.push_back(std::move(s));
  std::vector<ElemList>().swap(postings_);
  finalized_ = true;
}

void InvertedIndex::FinalizeUpdatable(MutableSetOptions options) {
  if (finalized_) throw std::logic_error("InvertedIndex: double Finalize");
  mutable_options_ = options;
  for (const ElemList& list : postings_) {
    structures_.push_back(engine_.PrepareMutable(list, options));
  }
  std::vector<ElemList>().swap(postings_);
  finalized_ = true;
  updatable_ = true;
}

std::size_t InvertedIndex::InsertDocument(Elem doc_id,
                                          std::span<const std::string> terms) {
  if (!updatable_) {
    throw std::logic_error(
        "InvertedIndex: InsertDocument requires FinalizeUpdatable");
  }
  std::size_t changed = 0;
  for (const std::string& term : terms) {
    PreparedSet* posting = nullptr;
    {
      std::shared_lock<std::shared_mutex> lock(membership_mutex_);
      auto it = dictionary_.find(term);
      if (it != dictionary_.end()) posting = &structures_[it->second];
    }
    if (posting == nullptr) {
      // Unseen term: grow the dictionary under the exclusive lock.  The
      // deque push_back leaves every previously handed-out posting
      // pointer valid.
      std::unique_lock<std::shared_mutex> lock(membership_mutex_);
      auto [it, inserted] = dictionary_.try_emplace(term, structures_.size());
      if (inserted) {
        ElemList single{doc_id};
        structures_.push_back(engine_.PrepareMutable(single, mutable_options_));
        ++changed;
        continue;
      }
      posting = &structures_[it->second];  // lost the race to another writer
    }
    // PreparedSet::Insert is internally synchronized; no index lock held.
    if (posting->Insert(doc_id)) ++changed;
  }
  return changed;
}

std::size_t InvertedIndex::EraseDocument(Elem doc_id,
                                         std::span<const std::string> terms) {
  if (!updatable_) {
    throw std::logic_error(
        "InvertedIndex: EraseDocument requires FinalizeUpdatable");
  }
  std::size_t changed = 0;
  for (const std::string& term : terms) {
    PreparedSet* posting = nullptr;
    {
      std::shared_lock<std::shared_mutex> lock(membership_mutex_);
      auto it = dictionary_.find(term);
      if (it != dictionary_.end()) posting = &structures_[it->second];
    }
    if (posting == nullptr) continue;  // unknown term: nothing to remove
    if (posting->Erase(doc_id)) ++changed;
  }
  return changed;
}

bool InvertedIndex::Resolve(std::span<const std::string> terms,
                            std::vector<const PreparedSet*>* sets) const {
  std::shared_lock<std::shared_mutex> lock(membership_mutex_);
  sets->reserve(terms.size());
  for (const std::string& term : terms) {
    auto it = dictionary_.find(term);
    if (it == dictionary_.end()) return false;  // unknown term
    sets->push_back(&structures_[it->second]);
  }
  return true;
}

ElemList InvertedIndex::Query(std::span<const std::string> terms,
                              QueryStats* stats) const {
  if (!finalized_) throw std::logic_error("InvertedIndex: not finalized");
  if (stats != nullptr) *stats = QueryStats{};
  if (terms.empty()) return {};
  std::vector<const PreparedSet*> sets;
  if (!Resolve(terms, &sets)) return {};
  fsi::Query query = engine_.Query(sets);
  ElemList out = query.Materialize();
  if (stats != nullptr) *stats = query.stats();
  return out;
}

std::size_t InvertedIndex::CountMatching(
    std::span<const std::string> terms) const {
  if (!finalized_) throw std::logic_error("InvertedIndex: not finalized");
  if (terms.empty()) return 0;
  std::vector<const PreparedSet*> sets;
  if (!Resolve(terms, &sets)) return 0;
  return engine_.Query(sets).Unordered().Count();
}

std::vector<Expr> InvertedIndex::ResolveLeaves(
    std::span<const std::string> terms) const {
  std::vector<Expr> leaves;
  leaves.reserve(terms.size());
  std::shared_lock<std::shared_mutex> lock(membership_mutex_);
  for (const std::string& term : terms) {
    auto it = dictionary_.find(term);
    if (it == dictionary_.end()) continue;  // unknown term: matches nothing
    leaves.push_back(Expr::Set(structures_[it->second]));
  }
  return leaves;
}

ElemList InvertedIndex::QueryAny(std::span<const std::string> terms,
                                 QueryStats* stats) const {
  if (!finalized_) throw std::logic_error("InvertedIndex: not finalized");
  if (stats != nullptr) *stats = QueryStats{};
  std::vector<Expr> leaves = ResolveLeaves(terms);
  if (leaves.empty()) return {};
  fsi::Query query = engine_.Query(Expr::Or(std::move(leaves)));
  ElemList out = query.Materialize();
  if (stats != nullptr) *stats = query.stats();
  return out;
}

ElemList InvertedIndex::QueryAtLeast(std::span<const std::string> terms,
                                     std::size_t min_terms,
                                     QueryStats* stats) const {
  if (!finalized_) throw std::logic_error("InvertedIndex: not finalized");
  if (min_terms == 0) {
    throw std::invalid_argument("InvertedIndex::QueryAtLeast: min_terms == 0");
  }
  if (stats != nullptr) *stats = QueryStats{};
  std::vector<Expr> leaves = ResolveLeaves(terms);
  // Unknown terms contribute no matches, so a document can reach
  // `min_terms` only among the known leaves.
  if (leaves.size() < min_terms) return {};
  fsi::Query query = engine_.Query(Expr::AtLeast(min_terms, std::move(leaves)));
  ElemList out = query.Materialize();
  if (stats != nullptr) *stats = query.stats();
  return out;
}

ElemList InvertedIndex::QueryExcluding(std::span<const std::string> include,
                                       std::span<const std::string> exclude,
                                       QueryStats* stats) const {
  if (!finalized_) throw std::logic_error("InvertedIndex: not finalized");
  if (stats != nullptr) *stats = QueryStats{};
  if (include.empty()) return {};
  std::vector<const PreparedSet*> sets;
  if (!Resolve(include, &sets)) return {};  // unknown include term
  std::vector<Expr> conj;
  conj.reserve(sets.size());
  for (const PreparedSet* set : sets) conj.push_back(Expr::Set(*set));
  Expr expr = Expr::And(std::move(conj));
  std::vector<Expr> excluded = ResolveLeaves(exclude);
  if (!excluded.empty()) {
    expr = Expr::Diff(std::move(expr), Expr::Or(std::move(excluded)));
  }
  fsi::Query query = engine_.Query(expr);
  ElemList out = query.Materialize();
  if (stats != nullptr) *stats = query.stats();
  return out;
}

std::vector<std::size_t> InvertedIndex::ResolveBatch(
    TermQueries queries, std::vector<BatchQuery>* resolved) const {
  if (!finalized_) throw std::logic_error("InvertedIndex: not finalized");
  std::vector<std::size_t> origin;  // resolved slot -> query index
  resolved->reserve(queries.size());
  origin.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    // Empty and unknown-term queries short-circuit to an empty result
    // (as Query does) without occupying the runner.
    if (queries[i].empty()) continue;
    BatchQuery sets;
    if (Resolve(queries[i], &sets)) {
      resolved->push_back(std::move(sets));
      origin.push_back(i);
    }
  }
  return origin;
}

std::vector<ElemList> InvertedIndex::BatchMatch(TermQueries queries,
                                                BatchOptions options,
                                                BatchStats* stats) const {
  std::vector<BatchQuery> resolved;
  std::vector<std::size_t> origin = ResolveBatch(queries, &resolved);
  BatchRunner runner(engine_, options);
  std::vector<ElemList> partial = runner.Materialize(resolved);
  if (stats != nullptr) *stats = runner.stats();
  std::vector<ElemList> out(queries.size());
  for (std::size_t j = 0; j < partial.size(); ++j) {
    out[origin[j]] = std::move(partial[j]);
  }
  return out;
}

std::vector<std::size_t> InvertedIndex::BatchCount(TermQueries queries,
                                                   BatchOptions options,
                                                   BatchStats* stats) const {
  std::vector<BatchQuery> resolved;
  std::vector<std::size_t> origin = ResolveBatch(queries, &resolved);
  BatchRunner runner(engine_, options);
  std::vector<std::size_t> partial = runner.Count(resolved);
  if (stats != nullptr) *stats = runner.stats();
  std::vector<std::size_t> out(queries.size(), 0);
  for (std::size_t j = 0; j < partial.size(); ++j) {
    out[origin[j]] = partial[j];
  }
  return out;
}

std::size_t InvertedIndex::DocumentFrequency(std::string_view term) const {
  std::shared_lock<std::shared_mutex> lock(membership_mutex_);
  auto it = dictionary_.find(std::string(term));
  if (it == dictionary_.end()) return 0;
  // Post-finalize the prepared structure is authoritative (delta-aware on
  // an updatable index); before finalize only postings_ exists.
  if (finalized_) return structures_[it->second].size();
  return postings_[it->second].size();
}

std::size_t InvertedIndex::num_terms() const {
  std::shared_lock<std::shared_mutex> lock(membership_mutex_);
  return dictionary_.size();
}

std::size_t InvertedIndex::SizeInWords() const {
  std::shared_lock<std::shared_mutex> lock(membership_mutex_);
  std::size_t words = 0;
  for (const auto& s : structures_) words += s.SizeInWords();
  return words;
}

namespace {

// Fixed prefix of the term-table snapshot section; followed by term_count
// packed entries of {set_index:u32, name_len:u32, name bytes}.
struct IndexMetaRecord {
  std::uint64_t num_documents = 0;
  std::uint64_t last_doc_id = 0;
  std::uint32_t has_docs = 0;
  std::uint32_t updatable = 0;
  double compact_fill = 0.0;
  std::uint64_t compact_min = 0;
  std::uint32_t background_compaction = 0;
  std::uint32_t term_count = 0;
};
static_assert(sizeof(IndexMetaRecord) == 48);

template <typename T>
void AppendPod(std::vector<std::byte>* out, const T& value) {
  const std::size_t at = out->size();
  out->resize(at + sizeof(T));
  std::memcpy(out->data() + at, &value, sizeof(T));
}

}  // namespace

void InvertedIndex::Save(const std::string& path) const {
  if (!finalized_) {
    throw std::logic_error("InvertedIndex::Save: index not finalized");
  }
  std::shared_lock<std::shared_mutex> lock(membership_mutex_);

  std::vector<const PreparedSet*> sets;
  sets.reserve(structures_.size());
  for (const PreparedSet& s : structures_) sets.push_back(&s);

  // Deterministic term order: by structure slot (dictionary_ is an
  // unordered map).
  std::vector<std::pair<std::size_t, const std::string*>> terms;
  terms.reserve(dictionary_.size());
  for (const auto& [term, index] : dictionary_) {
    terms.emplace_back(index, &term);
  }
  std::sort(terms.begin(), terms.end());

  IndexMetaRecord meta;
  meta.num_documents = num_documents_;
  meta.last_doc_id = last_doc_id_;
  meta.has_docs = has_docs_ ? 1 : 0;
  meta.updatable = updatable_ ? 1 : 0;
  meta.compact_fill = mutable_options_.compact_fill;
  meta.compact_min = mutable_options_.compact_min;
  meta.background_compaction = mutable_options_.background_compaction ? 1 : 0;
  meta.term_count = static_cast<std::uint32_t>(terms.size());

  std::vector<std::byte> table;
  AppendPod(&table, meta);
  for (const auto& [index, term] : terms) {
    AppendPod(&table, static_cast<std::uint32_t>(index));
    AppendPod(&table, static_cast<std::uint32_t>(term->size()));
    const std::size_t at = table.size();
    table.resize(at + term->size());
    std::memcpy(table.data() + at, term->data(), term->size());
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw storage::SnapshotError(
        storage::SnapshotErrorCode::kIo,
        "snapshot: cannot open '" + path + "' for writing");
  }
  storage::SnapshotWriter writer(out);
  engine_.WriteSnapshotSections(writer, sets);
  writer.AddSection(storage::kSectionTermTable, table,
                    storage::kSectionFlagCritical);
  writer.Finish();
}

InvertedIndex InvertedIndex::Open(const std::string& path,
                                  SnapshotLoadOptions options,
                                  SnapshotInfo* info) {
  using storage::SnapshotError;
  using storage::SnapshotErrorCode;
  auto backing = std::make_shared<const storage::MappedFile>(
      path, /*prefault=*/options.verify_checksums);
  storage::SnapshotReader reader(
      backing->bytes(),
      storage::SnapshotReader::Options{options.verify_checksums});

  const auto table =
      reader.RequireSection(storage::kSectionTermTable, "term table");
  if (table.size() < sizeof(IndexMetaRecord)) {
    throw SnapshotError(SnapshotErrorCode::kCorrupt,
                        "snapshot: term table section too small");
  }
  IndexMetaRecord meta;
  std::memcpy(&meta, table.data(), sizeof(meta));
  if (meta.updatable != 0) {
    if (!ValidCompactFill(meta.compact_fill)) {
      throw SnapshotError(SnapshotErrorCode::kCorrupt,
                          "snapshot: term table compaction policy is not a "
                          "finite positive number");
    }
    options.mutable_options.compact_fill = meta.compact_fill;
    options.mutable_options.compact_min = meta.compact_min;
    options.mutable_options.background_compaction =
        meta.background_compaction != 0;
  }

  LoadedSnapshot loaded =
      Engine::LoadSnapshotSections(reader, backing, options);
  if (info != nullptr) *info = loaded.info;
  // Prvalue return: constructed directly in the caller's storage
  // (guaranteed elision) — InvertedIndex itself is immovable.
  return InvertedIndex(std::move(loaded), table, options);
}

InvertedIndex::InvertedIndex(LoadedSnapshot&& loaded,
                             std::span<const std::byte> term_table,
                             SnapshotLoadOptions options)
    : engine_(std::move(loaded.engine)) {
  using storage::SnapshotError;
  using storage::SnapshotErrorCode;
  IndexMetaRecord meta;
  std::memcpy(&meta, term_table.data(), sizeof(meta));

  structures_.assign(loaded.sets.begin(), loaded.sets.end());
  num_documents_ = meta.num_documents;
  last_doc_id_ = static_cast<Elem>(meta.last_doc_id);
  has_docs_ = meta.has_docs != 0;
  updatable_ = meta.updatable != 0;
  mutable_options_ = options.mutable_options;
  finalized_ = true;
  // postings_ stays empty: post-finalize, structures_ is authoritative
  // everywhere (queries, DocumentFrequency, InsertDocument growth).

  std::size_t at = sizeof(meta);
  dictionary_.reserve(meta.term_count);
  for (std::uint32_t i = 0; i < meta.term_count; ++i) {
    std::uint32_t set_index = 0;
    std::uint32_t name_len = 0;
    if (term_table.size() - at < sizeof(set_index) + sizeof(name_len)) {
      throw SnapshotError(SnapshotErrorCode::kCorrupt,
                          "snapshot: term table truncated");
    }
    std::memcpy(&set_index, term_table.data() + at, sizeof(set_index));
    at += sizeof(set_index);
    std::memcpy(&name_len, term_table.data() + at, sizeof(name_len));
    at += sizeof(name_len);
    if (term_table.size() - at < name_len) {
      throw SnapshotError(SnapshotErrorCode::kCorrupt,
                          "snapshot: term table truncated");
    }
    if (set_index >= structures_.size()) {
      throw SnapshotError(SnapshotErrorCode::kCorrupt,
                          "snapshot: term references missing structure");
    }
    std::string term(
        reinterpret_cast<const char*>(term_table.data()) + at, name_len);
    at += name_len;
    if (!dictionary_.emplace(std::move(term), set_index).second) {
      throw SnapshotError(SnapshotErrorCode::kCorrupt,
                          "snapshot: duplicate term in term table");
    }
  }
}

}  // namespace fsi
