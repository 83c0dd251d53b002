// Tests for the tokenizer, inverted index, BM25 ranking, and search during indexing.
#include <algorithm>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/btree/btree.h"
#include "src/common/random.h"
#include "src/fulltext/fulltext.h"
#include "src/fulltext/tokenizer.h"
#include "src/storage/block_device.h"
#include "src/storage/buddy_allocator.h"
#include "src/storage/pager.h"

namespace hfad {
namespace fulltext {
namespace {

constexpr uint64_t kHeap = 128 * 1024 * 1024;

// ---------------------------------------------------------------- tokenizer

TEST(TokenizerTest, SplitsAndLowercases) {
  auto tokens = Tokenize("Hello, World! FOO-bar");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].term, "hello");
  EXPECT_EQ(tokens[1].term, "world");
  EXPECT_EQ(tokens[2].term, "foo");
  EXPECT_EQ(tokens[3].term, "bar");
}

TEST(TokenizerTest, PositionsAreOrdinal) {
  auto tokens = Tokenize("alpha beta gamma");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].position, 0u);
  EXPECT_EQ(tokens[1].position, 1u);
  EXPECT_EQ(tokens[2].position, 2u);
}

TEST(TokenizerTest, StopwordsDroppedButConsumePositions) {
  auto tokens = Tokenize("war and peace");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].term, "war");
  EXPECT_EQ(tokens[0].position, 0u);
  EXPECT_EQ(tokens[1].term, "peace");
  EXPECT_EQ(tokens[1].position, 2u);  // "and" consumed position 1.
}

TEST(TokenizerTest, NumbersAreTerms) {
  auto tokens = Tokenize("error 404 not found");
  // "not" is a stopword.
  std::vector<std::string> terms;
  for (const auto& t : tokens) {
    terms.push_back(t.term);
  }
  EXPECT_EQ(terms, (std::vector<std::string>{"error", "404", "found"}));
}

TEST(TokenizerTest, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("... !!! ???").empty());
}

TEST(TokenizerTest, LongTermsTruncated) {
  std::string giant(200, 'x');
  auto tokens = Tokenize(giant);
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].term.size(), 64u);
}

TEST(TokenizerTest, NormalizeTermMatchesTokenizer) {
  EXPECT_EQ(NormalizeTerm("Hello!"), "hello");
  EXPECT_EQ(NormalizeTerm("C++"), "c");
  EXPECT_EQ(NormalizeTerm("..."), "");
}

// ---------------------------------------------------------------- index fixture

class FullTextTest : public ::testing::Test {
 protected:
  FullTextTest()
      : dev_(kPageSize + kHeap),
        pager_(&dev_, 4096),
        alloc_(kPageSize, kHeap),
        tree_(&pager_, &alloc_, 0),
        index_(&tree_) {}

  std::vector<uint64_t> Ids(const std::vector<SearchHit>& hits) {
    std::vector<uint64_t> ids;
    for (const auto& h : hits) {
      ids.push_back(h.docid);
    }
    return ids;
  }

  MemoryBlockDevice dev_;
  Pager pager_;
  BuddyAllocator alloc_;
  btree::BTree tree_;
  FullTextIndex index_;
};

TEST_F(FullTextTest, EmptyIndexFindsNothing) {
  auto r = index_.Search({"anything"});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
  EXPECT_EQ(*index_.doc_count(), 0u);
}

TEST_F(FullTextTest, SingleTermSearch) {
  ASSERT_TRUE(index_.IndexDocument(1, "the quick brown fox").ok());
  ASSERT_TRUE(index_.IndexDocument(2, "the lazy dog").ok());
  auto r = index_.Search({"fox"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Ids(*r), (std::vector<uint64_t>{1}));
  EXPECT_EQ(*index_.doc_count(), 2u);
}

TEST_F(FullTextTest, ConjunctionSemantics) {
  ASSERT_TRUE(index_.IndexDocument(1, "apples and oranges").ok());
  ASSERT_TRUE(index_.IndexDocument(2, "apples and bananas").ok());
  ASSERT_TRUE(index_.IndexDocument(3, "oranges and bananas").ok());
  auto r = index_.Search({"apples", "bananas"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Ids(*r), (std::vector<uint64_t>{2}));
  // A term nobody has makes the conjunction empty.
  auto r2 = index_.Search({"apples", "kiwi"});
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->empty());
}

TEST_F(FullTextTest, SearchIsCaseInsensitive) {
  ASSERT_TRUE(index_.IndexDocument(1, "Camera RAW Photo").ok());
  auto r = index_.Search({"CAMERA", "photo"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Ids(*r), (std::vector<uint64_t>{1}));
}

TEST_F(FullTextTest, StopwordQueryRejected) {
  ASSERT_TRUE(index_.IndexDocument(1, "something here").ok());
  EXPECT_FALSE(index_.Search({"the"}).ok());
  EXPECT_FALSE(index_.Search({""}).ok());
  EXPECT_FALSE(index_.Search({}).ok());
}

TEST_F(FullTextTest, Bm25RanksRarerAndDenserTermsHigher) {
  // doc 1 mentions "zebra" three times in a short doc; doc 2 once in a long doc.
  ASSERT_TRUE(index_.IndexDocument(1, "zebra zebra zebra stripes").ok());
  std::string long_doc = "zebra";
  for (int i = 0; i < 200; i++) {
    long_doc += " filler" + std::to_string(i);
  }
  ASSERT_TRUE(index_.IndexDocument(2, long_doc).ok());
  auto r = index_.Search({"zebra"});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0].docid, 1u);
  EXPECT_GT((*r)[0].score, (*r)[1].score);
}

TEST_F(FullTextTest, ReindexReplacesOldContent) {
  ASSERT_TRUE(index_.IndexDocument(1, "original content alpha").ok());
  ASSERT_TRUE(index_.IndexDocument(1, "replacement content beta").ok());
  auto old_term = index_.Search({"alpha"});
  ASSERT_TRUE(old_term.ok());
  EXPECT_TRUE(old_term->empty());
  auto new_term = index_.Search({"beta"});
  ASSERT_TRUE(new_term.ok());
  EXPECT_EQ(Ids(*new_term), (std::vector<uint64_t>{1}));
  EXPECT_EQ(*index_.doc_count(), 1u);
}

TEST_F(FullTextTest, RemoveDocument) {
  ASSERT_TRUE(index_.IndexDocument(1, "shared term unique1").ok());
  ASSERT_TRUE(index_.IndexDocument(2, "shared term unique2").ok());
  ASSERT_TRUE(index_.RemoveDocument(1).ok());
  auto shared = index_.Search({"shared"});
  ASSERT_TRUE(shared.ok());
  EXPECT_EQ(Ids(*shared), (std::vector<uint64_t>{2}));
  auto unique = index_.Search({"unique1"});
  ASSERT_TRUE(unique.ok());
  EXPECT_TRUE(unique->empty());
  EXPECT_EQ(*index_.doc_count(), 1u);
  EXPECT_EQ(*index_.DocumentFrequency("shared"), 1u);
  EXPECT_EQ(*index_.DocumentFrequency("unique1"), 0u);
  EXPECT_TRUE(index_.RemoveDocument(1).IsNotFound());
}

TEST_F(FullTextTest, DocumentFrequencyTracksCorpus) {
  for (uint64_t d = 1; d <= 10; d++) {
    std::string text = "common";
    if (d <= 3) {
      text += " rare";
    }
    ASSERT_TRUE(index_.IndexDocument(d, text).ok());
  }
  EXPECT_EQ(*index_.DocumentFrequency("common"), 10u);
  EXPECT_EQ(*index_.DocumentFrequency("rare"), 3u);
  EXPECT_EQ(*index_.DocumentFrequency("absent"), 0u);
}

TEST_F(FullTextTest, PostingsReturnsDocids) {
  ASSERT_TRUE(index_.IndexDocument(7, "needle haystack").ok());
  ASSERT_TRUE(index_.IndexDocument(9, "needle thread").ok());
  auto r = index_.Postings("needle");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<uint64_t>{7, 9}));
}

TEST_F(FullTextTest, LimitCapsResults) {
  for (uint64_t d = 1; d <= 20; d++) {
    ASSERT_TRUE(index_.IndexDocument(d, "popular topic").ok());
  }
  auto r = index_.Search({"popular"}, 5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 5u);
}

TEST_F(FullTextTest, PhraseSearch) {
  ASSERT_TRUE(index_.IndexDocument(1, "new york city weather").ok());
  ASSERT_TRUE(index_.IndexDocument(2, "york has a new city hall").ok());
  auto r = index_.SearchPhrase({"new", "york"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Ids(*r), (std::vector<uint64_t>{1}));
  // Phrase with an interior stopword: positions still line up.
  ASSERT_TRUE(index_.IndexDocument(3, "jack and jill went up").ok());
  auto r2 = index_.SearchPhrase({"jack", "and", "jill"});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(Ids(*r2), (std::vector<uint64_t>{3}));
}

TEST_F(FullTextTest, PersistsAcrossReopen) {
  ASSERT_TRUE(index_.IndexDocument(1, "durable full text data").ok());
  ASSERT_TRUE(index_.IndexDocument(2, "volatile nonsense").ok());
  uint64_t root = tree_.root();
  ASSERT_TRUE(pager_.Flush().ok());
  ASSERT_TRUE(pager_.DropCacheForTesting().ok());

  btree::BTree tree2(&pager_, &alloc_, root);
  FullTextIndex reopened(&tree2);
  auto r = reopened.Search({"durable"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Ids(*r), (std::vector<uint64_t>{1}));
  EXPECT_EQ(*reopened.doc_count(), 2u);
}

TEST_F(FullTextTest, LargeCorpusConjunction) {
  Random rng(5);
  std::set<uint64_t> expect;
  for (uint64_t d = 1; d <= 500; d++) {
    std::string text = "filler" + std::to_string(rng.Uniform(50));
    bool has_a = rng.OneIn(3);
    bool has_b = rng.OneIn(3);
    if (has_a) {
      text += " marker alphaterm";
    }
    if (has_b) {
      text += " betaterm trailing";
    }
    if (has_a && has_b) {
      expect.insert(d);
    }
    ASSERT_TRUE(index_.IndexDocument(d, text).ok());
  }
  auto r = index_.Search({"alphaterm", "betaterm"});
  ASSERT_TRUE(r.ok());
  std::vector<uint64_t> ids = Ids(*r);
  std::set<uint64_t> got(ids.begin(), ids.end());
  EXPECT_EQ(got, expect);
}

// ---------------------------------------------------------------- concurrent search

TEST_F(FullTextTest, SearchWhileIndexing) {
  std::thread writer([this] {
    for (uint64_t d = 1; d <= 300; d++) {
      Status s = index_.IndexDocument(d, "concurrent searchable corpus doc" + std::to_string(d));
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
  });
  // Searches racing with indexing must not crash or error; results are a snapshot.
  for (int i = 0; i < 20; i++) {
    auto r = index_.Search({"searchable"});
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  writer.join();
  auto r = index_.Search({"searchable"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 300u);
}

// Property sweep: every indexed doc is findable by each of its distinct terms; removed
// docs never surface. Across corpus shapes.
struct CorpusParam {
  uint64_t seed;
  int docs;
  int vocab;
  int words_per_doc;
};

// Printed into the CTest name (".../seed1_docs60_vocab30_words8") instead of the raw
// struct bytes, whose padding changes from build to build.
void PrintTo(const CorpusParam& c, std::ostream* os) {
  *os << "seed" << c.seed << "_docs" << c.docs << "_vocab" << c.vocab << "_words"
      << c.words_per_doc;
}

class FullTextPropertyTest : public ::testing::TestWithParam<CorpusParam> {};

TEST_P(FullTextPropertyTest, EveryDocFindableByItsTerms) {
  const CorpusParam p = GetParam();
  MemoryBlockDevice dev(kPageSize + kHeap);
  Pager pager(&dev, 4096);
  BuddyAllocator alloc(kPageSize, kHeap);
  btree::BTree tree(&pager, &alloc, 0);
  FullTextIndex index(&tree);
  Random rng(p.seed);

  std::map<uint64_t, std::set<std::string>> doc_terms;
  for (int d = 1; d <= p.docs; d++) {
    std::string text;
    std::set<std::string> terms;
    for (int w = 0; w < p.words_per_doc; w++) {
      std::string word = "w" + std::to_string(rng.Uniform(p.vocab));
      terms.insert(word);
      text += word + " ";
    }
    ASSERT_TRUE(index.IndexDocument(d, text).ok());
    doc_terms[d] = std::move(terms);
  }
  // Remove a third of the docs.
  std::set<uint64_t> removed;
  for (const auto& [d, terms] : doc_terms) {
    if (d % 3 == 0) {
      ASSERT_TRUE(index.RemoveDocument(d).ok());
      removed.insert(d);
    }
  }
  for (const auto& [d, terms] : doc_terms) {
    for (const std::string& term : terms) {
      auto r = index.Search({term});
      ASSERT_TRUE(r.ok());
      bool found = false;
      for (const auto& hit : *r) {
        ASSERT_EQ(removed.count(hit.docid), 0u) << "removed doc surfaced for " << term;
        if (hit.docid == d) {
          found = true;
        }
      }
      ASSERT_EQ(found, removed.count(d) == 0) << "doc " << d << " term " << term;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpora, FullTextPropertyTest,
                         ::testing::Values(CorpusParam{1, 60, 30, 8},
                                           CorpusParam{2, 120, 10, 4},
                                           CorpusParam{3, 40, 200, 20},
                                           CorpusParam{4, 200, 50, 12}));

}  // namespace
}  // namespace fulltext
}  // namespace hfad
