#include "src/fulltext/fulltext.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>
#include <utility>

#include "src/common/coding.h"
#include "src/common/stats.h"

namespace hfad {
namespace fulltext {

namespace {

std::string OidBytes(uint64_t docid) {
  std::string key(8, '\0');
  for (int i = 7; i >= 0; i--) {
    key[i] = static_cast<char>(docid & 0xff);
    docid >>= 8;
  }
  return key;
}

uint64_t OidFromBytes(Slice b) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8 && i < b.size(); i++) {
    v = (v << 8) | static_cast<uint8_t>(b[i]);
  }
  return v;
}

std::string PostingKey(const std::string& term, uint64_t docid) {
  std::string key = "P" + term;
  key.push_back('\0');
  key += OidBytes(docid);
  return key;
}

std::string DfKey(const std::string& term) { return "D" + term; }
std::string DocTermsKey(uint64_t docid) { return "T" + OidBytes(docid); }
std::string DocLenKey(uint64_t docid) { return "L" + OidBytes(docid); }
const char kStatsKey[] = "S";

}  // namespace

FullTextIndex::FullTextIndex(btree::BTree* tree, Bm25Params params)
    : tree_(tree), params_(params) {}

Status FullTextIndex::IndexDocument(uint64_t docid, Slice text) {
  // Tokenize outside the lock: it is the CPU-heavy part and touches no shared state.
  std::vector<Token> tokens = Tokenize(text);
  uint64_t doc_len = tokens.empty() ? 0 : tokens.back().position + 1;

  // term -> (freq, positions)
  std::map<std::string, std::pair<uint32_t, std::vector<uint32_t>>> terms;
  for (const Token& t : tokens) {
    auto& entry = terms[t.term];
    entry.first++;
    entry.second.push_back(t.position);
  }

  std::lock_guard<std::mutex> lock(write_mu_);
  // Re-indexing replaces the previous version.
  Status removed = RemoveLocked(docid);
  if (!removed.ok() && !removed.IsNotFound()) {
    return removed;
  }

  std::string doc_terms;
  for (const auto& [term, entry] : terms) {
    // Posting: freq, then delta-encoded positions.
    std::string posting;
    PutVarint32(&posting, entry.first);
    uint32_t prev = 0;
    for (uint32_t pos : entry.second) {
      PutVarint32(&posting, pos - prev);
      prev = pos;
    }
    HFAD_RETURN_IF_ERROR(tree_->Put(PostingKey(term, docid), posting));

    // Document frequency.
    uint64_t df = 0;
    auto raw = tree_->Get(DfKey(term));
    if (raw.ok()) {
      Slice in(*raw);
      GetVarint64(&in, &df);
    } else if (!raw.status().IsNotFound()) {
      return raw.status();
    }
    std::string df_val;
    PutVarint64(&df_val, df + 1);
    HFAD_RETURN_IF_ERROR(tree_->Put(DfKey(term), df_val));

    PutLengthPrefixed(&doc_terms, term);
    stats::Add(stats::Counter::kFulltextTermsPosted);
  }
  HFAD_RETURN_IF_ERROR(tree_->Put(DocTermsKey(docid), doc_terms));

  std::string len_val;
  PutVarint64(&len_val, doc_len);
  HFAD_RETURN_IF_ERROR(tree_->Put(DocLenKey(docid), len_val));

  HFAD_ASSIGN_OR_RETURN(auto cs, CorpusStats());
  std::string stats_val;
  PutVarint64(&stats_val, cs.first + 1);
  PutVarint64(&stats_val, cs.second + doc_len);
  HFAD_RETURN_IF_ERROR(tree_->Put(kStatsKey, stats_val));
  stats::Add(stats::Counter::kFulltextDocsIndexed);
  return Status::Ok();
}

Status FullTextIndex::RemoveDocument(uint64_t docid) {
  std::lock_guard<std::mutex> lock(write_mu_);
  return RemoveLocked(docid);
}

Status FullTextIndex::RemoveLocked(uint64_t docid) {
  auto raw_terms = tree_->Get(DocTermsKey(docid));
  if (!raw_terms.ok()) {
    return raw_terms.status();  // NotFound when the doc was never indexed.
  }
  Slice in(*raw_terms);
  Slice term_slice;
  while (GetLengthPrefixed(&in, &term_slice)) {
    std::string term = term_slice.ToString();
    HFAD_RETURN_IF_ERROR(tree_->Delete(PostingKey(term, docid)));
    uint64_t df = 0;
    auto raw_df = tree_->Get(DfKey(term));
    if (raw_df.ok()) {
      Slice dfi(*raw_df);
      GetVarint64(&dfi, &df);
    }
    if (df <= 1) {
      // Last posting for this term.
      Status s = tree_->Delete(DfKey(term));
      if (!s.ok() && !s.IsNotFound()) {
        return s;
      }
    } else {
      std::string df_val;
      PutVarint64(&df_val, df - 1);
      HFAD_RETURN_IF_ERROR(tree_->Put(DfKey(term), df_val));
    }
  }
  // Document length and corpus stats.
  uint64_t doc_len = 0;
  auto raw_len = tree_->Get(DocLenKey(docid));
  if (raw_len.ok()) {
    Slice li(*raw_len);
    GetVarint64(&li, &doc_len);
    HFAD_RETURN_IF_ERROR(tree_->Delete(DocLenKey(docid)));
  }
  HFAD_RETURN_IF_ERROR(tree_->Delete(DocTermsKey(docid)));
  HFAD_ASSIGN_OR_RETURN(auto cs, CorpusStats());
  std::string stats_val;
  PutVarint64(&stats_val, cs.first > 0 ? cs.first - 1 : 0);
  PutVarint64(&stats_val, cs.second >= doc_len ? cs.second - doc_len : 0);
  return tree_->Put(kStatsKey, stats_val);
}

Result<std::pair<uint64_t, uint64_t>> FullTextIndex::CorpusStats() const {
  auto raw = tree_->Get(kStatsKey);
  if (raw.status().IsNotFound()) {
    return std::pair<uint64_t, uint64_t>{0, 0};
  }
  HFAD_RETURN_IF_ERROR(raw.status());
  Slice in(*raw);
  uint64_t docs = 0, tokens = 0;
  if (!GetVarint64(&in, &docs) || !GetVarint64(&in, &tokens)) {
    return Status::Corruption("bad corpus stats entry");
  }
  return std::pair<uint64_t, uint64_t>{docs, tokens};
}

Result<std::vector<FullTextIndex::Posting>> FullTextIndex::PostingsLocked(
    const std::string& term) const {
  std::vector<Posting> out;
  std::string prefix = "P" + term;
  prefix.push_back('\0');
  Status decode_status;
  HFAD_RETURN_IF_ERROR(tree_->ScanPrefix(prefix, [&](Slice key, Slice value) {
    Posting p;
    Slice oid_bytes(key.data() + prefix.size(), key.size() - prefix.size());
    p.docid = OidFromBytes(oid_bytes);
    Slice in = value;
    if (!GetVarint32(&in, &p.freq)) {
      decode_status = Status::Corruption("bad posting for term " + term);
      return false;
    }
    uint32_t pos = 0;
    for (uint32_t i = 0; i < p.freq; i++) {
      uint32_t delta;
      if (!GetVarint32(&in, &delta)) {
        decode_status = Status::Corruption("bad positions for term " + term);
        return false;
      }
      pos += delta;
      p.positions.push_back(pos);
    }
    out.push_back(std::move(p));
    return true;
  }));
  HFAD_RETURN_IF_ERROR(decode_status);
  return out;
}

Result<std::vector<uint64_t>> FullTextIndex::Postings(const std::string& term) const {
  std::string norm = NormalizeTerm(term);
  if (norm.empty()) {
    return Status::InvalidArgument("term has no indexable characters");
  }
  HFAD_ASSIGN_OR_RETURN(std::vector<Posting> postings, PostingsLocked(norm));
  std::vector<uint64_t> out;
  out.reserve(postings.size());
  for (const Posting& p : postings) {
    out.push_back(p.docid);
  }
  return out;
}

Status FullTextIndex::ScanPostingDocs(const std::string& term, uint64_t first_docid,
                                      const std::function<bool(uint64_t)>& fn) const {
  std::string norm = NormalizeTerm(term);
  if (norm.empty()) {
    return Status::InvalidArgument("term has no indexable characters");
  }
  // Keys run "P" term '\0' oid(8B BE); the byte after the range's NUL separator is 0x01.
  std::string first = PostingKey(norm, first_docid);
  std::string last = "P" + norm + '\x01';
  return tree_->Scan(first, last, [&](Slice key, Slice) {
    return fn(OidFromBytes(Slice(key.data() + key.size() - 8, 8)));
  });
}

Result<std::vector<SearchHit>> FullTextIndex::ScoreDocuments(
    const std::vector<std::string>& terms, const std::vector<uint64_t>& docids,
    size_t limit) const {
  if (terms.empty()) {
    return Status::InvalidArgument("empty search");
  }
  HFAD_ASSIGN_OR_RETURN(auto cs, CorpusStats());
  if (cs.first == 0 || docids.empty()) {
    return std::vector<SearchHit>{};
  }
  const double n_docs = static_cast<double>(cs.first);
  const double avg_len = cs.second > 0 ? static_cast<double>(cs.second) / n_docs : 1.0;

  std::vector<double> idf(terms.size());
  for (size_t qi = 0; qi < terms.size(); qi++) {
    HFAD_ASSIGN_OR_RETURN(uint64_t df, DocumentFrequency(terms[qi]));
    idf[qi] = std::log((n_docs - static_cast<double>(df) + 0.5) /
                       (static_cast<double>(df) + 0.5) +
                       1.0);
  }

  std::vector<SearchHit> hits;
  hits.reserve(docids.size());
  for (uint64_t docid : docids) {
    uint64_t doc_len = 1;
    auto raw_len = tree_->Get(DocLenKey(docid));
    if (raw_len.ok()) {
      Slice li(*raw_len);
      GetVarint64(&li, &doc_len);
    }
    const double norm_len = static_cast<double>(doc_len) / avg_len;
    double score = 0.0;
    for (size_t qi = 0; qi < terms.size(); qi++) {
      auto raw = tree_->Get(PostingKey(terms[qi], docid));
      if (raw.status().IsNotFound()) {
        continue;
      }
      HFAD_RETURN_IF_ERROR(raw.status());
      Slice in(*raw);
      uint32_t freq = 0;
      if (!GetVarint32(&in, &freq)) {
        return Status::Corruption("bad posting for term " + terms[qi]);
      }
      const double f = static_cast<double>(freq);
      score += idf[qi] * f * (params_.k1 + 1.0) /
               (f + params_.k1 * (1.0 - params_.b + params_.b * norm_len));
    }
    hits.push_back(SearchHit{docid, score});
  }
  std::sort(hits.begin(), hits.end(), [](const SearchHit& a, const SearchHit& b) {
    return a.score != b.score ? a.score > b.score : a.docid < b.docid;
  });
  if (limit != 0 && hits.size() > limit) {
    hits.resize(limit);
  }
  return hits;
}

Result<bool> FullTextIndex::ContainsPosting(const std::string& term, uint64_t docid) const {
  std::string norm = NormalizeTerm(term);
  if (norm.empty()) {
    return Status::InvalidArgument("term has no indexable characters");
  }
  return tree_->Contains(PostingKey(norm, docid));
}

Result<std::vector<SearchHit>> FullTextIndex::Search(const std::vector<std::string>& terms,
                                                     size_t limit) const {
  if (terms.empty()) {
    return Status::InvalidArgument("empty search");
  }
  std::vector<std::string> normalized;
  for (const std::string& t : terms) {
    std::string norm = NormalizeTerm(t);
    if (norm.empty()) {
      return Status::InvalidArgument("term '" + t + "' has no indexable characters");
    }
    if (IsStopword(norm)) {
      return Status::InvalidArgument("term '" + norm + "' is a stopword and never indexed");
    }
    normalized.push_back(std::move(norm));
  }

  HFAD_ASSIGN_OR_RETURN(auto cs, CorpusStats());
  const double n_docs = static_cast<double>(cs.first);
  if (cs.first == 0) {
    return std::vector<SearchHit>{};
  }
  const double avg_len = cs.second > 0 ? static_cast<double>(cs.second) / n_docs : 1.0;

  // Conjunction with accumulated BM25 contributions.
  std::unordered_map<uint64_t, double> scores;
  std::unordered_map<uint64_t, int> matched;
  for (size_t qi = 0; qi < normalized.size(); qi++) {
    HFAD_ASSIGN_OR_RETURN(std::vector<Posting> postings, PostingsLocked(normalized[qi]));
    if (postings.empty()) {
      return std::vector<SearchHit>{};  // Conjunction with an absent term is empty.
    }
    const double df = static_cast<double>(postings.size());
    const double idf = std::log((n_docs - df + 0.5) / (df + 0.5) + 1.0);
    for (const Posting& p : postings) {
      if (qi > 0 && matched.find(p.docid) == matched.end()) {
        continue;  // Not in the running intersection.
      }
      uint64_t doc_len = 1;
      auto raw_len = tree_->Get(DocLenKey(p.docid));
      if (raw_len.ok()) {
        Slice li(*raw_len);
        GetVarint64(&li, &doc_len);
      }
      const double f = static_cast<double>(p.freq);
      const double norm_len = static_cast<double>(doc_len) / avg_len;
      const double tf = f * (params_.k1 + 1.0) /
                        (f + params_.k1 * (1.0 - params_.b + params_.b * norm_len));
      scores[p.docid] += idf * tf;
      matched[p.docid]++;
    }
  }

  std::vector<SearchHit> hits;
  for (const auto& [docid, count] : matched) {
    if (static_cast<size_t>(count) == normalized.size()) {
      hits.push_back(SearchHit{docid, scores[docid]});
    }
  }
  std::sort(hits.begin(), hits.end(), [](const SearchHit& a, const SearchHit& b) {
    return a.score != b.score ? a.score > b.score : a.docid < b.docid;
  });
  if (limit != 0 && hits.size() > limit) {
    hits.resize(limit);
  }
  return hits;
}

Result<std::vector<SearchHit>> FullTextIndex::SearchPhrase(
    const std::vector<std::string>& phrase, size_t limit) const {
  // Normalize, remembering each term's offset within the phrase so stopwords (which are
  // not indexed but did consume positions) can be skipped correctly.
  std::vector<std::pair<std::string, uint32_t>> terms;  // (term, offset in phrase)
  uint32_t offset = 0;
  for (const std::string& t : phrase) {
    std::string norm = NormalizeTerm(t);
    if (norm.empty()) {
      return Status::InvalidArgument("phrase term '" + t + "' not indexable");
    }
    if (!IsStopword(norm)) {
      terms.emplace_back(norm, offset);
    }
    offset++;
  }
  if (terms.empty()) {
    return Status::InvalidArgument("phrase contains only stopwords");
  }

  // Candidate docs: conjunction of all terms, with positions.
  std::unordered_map<uint64_t, std::vector<std::vector<uint32_t>>> candidates;
  for (size_t qi = 0; qi < terms.size(); qi++) {
    HFAD_ASSIGN_OR_RETURN(std::vector<Posting> postings, PostingsLocked(terms[qi].first));
    std::unordered_map<uint64_t, std::vector<std::vector<uint32_t>>> next;
    for (Posting& p : postings) {
      if (qi == 0) {
        next[p.docid].push_back(std::move(p.positions));
      } else {
        auto it = candidates.find(p.docid);
        if (it != candidates.end()) {
          next[p.docid] = std::move(it->second);
          next[p.docid].push_back(std::move(p.positions));
        }
      }
    }
    candidates = std::move(next);
    if (candidates.empty()) {
      return std::vector<SearchHit>{};
    }
  }

  // A match at base position b requires term i at position b + offset_i - offset_0.
  std::vector<SearchHit> hits;
  for (const auto& [docid, position_lists] : candidates) {
    int match_count = 0;
    for (uint32_t base : position_lists[0]) {
      bool all = true;
      for (size_t i = 1; i < terms.size(); i++) {
        uint32_t want = base + terms[i].second - terms[0].second;
        const auto& positions = position_lists[i];
        if (!std::binary_search(positions.begin(), positions.end(), want)) {
          all = false;
          break;
        }
      }
      if (all) {
        match_count++;
      }
    }
    if (match_count > 0) {
      hits.push_back(SearchHit{docid, static_cast<double>(match_count)});
    }
  }
  std::sort(hits.begin(), hits.end(), [](const SearchHit& a, const SearchHit& b) {
    return a.score != b.score ? a.score > b.score : a.docid < b.docid;
  });
  if (limit != 0 && hits.size() > limit) {
    hits.resize(limit);
  }
  return hits;
}

Status FullTextIndex::ScanDocuments(const std::function<bool(uint64_t)>& fn) const {
  return tree_->ScanPrefix("T", [&](Slice key, Slice) {
    Slice oid_bytes(key.data() + 1, key.size() - 1);
    return fn(OidFromBytes(oid_bytes));
  });
}

Result<bool> FullTextIndex::HasDocument(uint64_t docid) const {
  auto raw = tree_->Get(DocTermsKey(docid));
  if (raw.status().IsNotFound()) {
    return false;
  }
  HFAD_RETURN_IF_ERROR(raw.status());
  return true;
}

Result<uint64_t> FullTextIndex::doc_count() const {
  HFAD_ASSIGN_OR_RETURN(auto cs, CorpusStats());
  return cs.first;
}

Result<uint64_t> FullTextIndex::DocumentFrequency(const std::string& term) const {
  std::string norm = NormalizeTerm(term);
  auto raw = tree_->Get(DfKey(norm));
  if (raw.status().IsNotFound()) {
    return uint64_t{0};
  }
  HFAD_RETURN_IF_ERROR(raw.status());
  Slice in(*raw);
  uint64_t df = 0;
  GetVarint64(&in, &df);
  return df;
}

}  // namespace fulltext
}  // namespace hfad
