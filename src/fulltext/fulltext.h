// Persistent inverted index with BM25 ranking — hFAD's replacement for Lucene (§3.4).
//
// The index lives in one btree (provided by the caller, typically allocated from the OSD
// heap and registered as a named root). Key space layout, all byte-ordered so related
// entries cluster:
//
//   "P" term '\0' oid(8B BE) -> varint freq, delta-varint positions   (one posting)
//   "D" term                 -> varint document frequency
//   "T" oid(8B BE)           -> per-doc term list (term, freq)*       (for removal)
//   "L" oid(8B BE)           -> varint document length in tokens
//   "S"                      -> varint doc_count, varint total_tokens (corpus stats)
//
// Queries are conjunctive (§3.1.1: results are "the conjunction of the results of an
// index lookup for each element") and ranked by BM25. Indexing is synchronous: the
// FileSystem writes through index::FullTextIndexStore, which persists the tree's root
// after every Add and Remove.
//
// Thread safety: Search is safe concurrently with indexing; Index/Remove are internally
// serialized (tokenization happens outside the lock).
#ifndef HFAD_SRC_FULLTEXT_FULLTEXT_H_
#define HFAD_SRC_FULLTEXT_FULLTEXT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/btree/btree.h"
#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/fulltext/tokenizer.h"

namespace hfad {
namespace fulltext {

struct SearchHit {
  uint64_t docid = 0;
  double score = 0.0;  // BM25; higher is better.
};

// BM25 parameters (standard defaults).
struct Bm25Params {
  double k1 = 1.2;
  double b = 0.75;
};

class FullTextIndex {
 public:
  // The caller owns `tree` and persists its root (e.g. as an OSD named root).
  explicit FullTextIndex(btree::BTree* tree, Bm25Params params = {});

  FullTextIndex(const FullTextIndex&) = delete;
  FullTextIndex& operator=(const FullTextIndex&) = delete;

  // Index (or re-index) a document. Replaces any previous content for docid.
  Status IndexDocument(uint64_t docid, Slice text);

  // Remove a document from the index. NotFound if it was never indexed.
  Status RemoveDocument(uint64_t docid);

  // Conjunctive search: documents containing *every* term, ranked by summed BM25.
  // Terms are normalized (lowercased) first; stopwords and empty terms are rejected as
  // InvalidArgument since they are never indexed. limit == 0 means unlimited.
  Result<std::vector<SearchHit>> Search(const std::vector<std::string>& terms,
                                        size_t limit = 0) const;

  // Documents containing `term`, unranked (index-store building block).
  Result<std::vector<uint64_t>> Postings(const std::string& term) const;

  // Visit the docids containing `term`, ascending, starting at the first docid >=
  // first_docid; stop early by returning false. The seekable-iterator building block:
  // one bounded btree range scan, no posting materialization.
  Status ScanPostingDocs(const std::string& term, uint64_t first_docid,
                         const std::function<bool(uint64_t docid)>& fn) const;

  // BM25-score an externally produced candidate set (the planner's conjunction of the
  // terms) and return hits sorted by descending score (ties by ascending docid),
  // truncated to `limit` when non-zero. Terms must be normalized and non-empty;
  // candidates not containing a term contribute nothing for it.
  Result<std::vector<SearchHit>> ScoreDocuments(const std::vector<std::string>& terms,
                                                const std::vector<uint64_t>& docids,
                                                size_t limit = 0) const;

  // Point probe: does `docid` contain `term`? One btree lookup, no posting scan.
  Result<bool> ContainsPosting(const std::string& term, uint64_t docid) const;

  // Exact phrase search using stored positions: documents where the terms appear
  // consecutively. Stopwords inside the phrase are skipped but still consume a position.
  Result<std::vector<SearchHit>> SearchPhrase(const std::vector<std::string>& phrase,
                                              size_t limit = 0) const;

  // Is `docid` indexed (even as an empty document)? One btree lookup.
  Result<bool> HasDocument(uint64_t docid) const;

  // Number of indexed documents.
  Result<uint64_t> doc_count() const;

  // Visit every indexed document id (fsck support). Stop early by returning false.
  Status ScanDocuments(const std::function<bool(uint64_t docid)>& fn) const;

  // Document frequency of a term (0 when absent).
  Result<uint64_t> DocumentFrequency(const std::string& term) const;

 private:
  struct Posting {
    uint64_t docid;
    uint32_t freq;
    std::vector<uint32_t> positions;
  };

  Status RemoveLocked(uint64_t docid);
  Result<std::vector<Posting>> PostingsLocked(const std::string& term) const;
  Result<std::pair<uint64_t, uint64_t>> CorpusStats() const;  // (docs, total tokens)

  btree::BTree* const tree_;
  const Bm25Params params_;
  mutable std::mutex write_mu_;  // Serializes multi-entry index mutations.
};

}  // namespace fulltext
}  // namespace hfad

#endif  // HFAD_SRC_FULLTEXT_FULLTEXT_H_
