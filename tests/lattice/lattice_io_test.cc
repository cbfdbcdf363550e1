#include "lattice/lattice_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "datasets/dblife.h"
#include "datasets/toy_product_db.h"
#include "datasets/workload.h"
#include "kws/pruned_lattice.h"
#include "lattice/canonical_label.h"
#include "lattice/lattice_generator.h"
#include "text/inverted_index.h"

namespace kwsdbg {
namespace {

std::unique_ptr<Lattice> MakeToyLattice(const SchemaGraph& schema,
                                        size_t max_joins = 2,
                                        size_t copies = 2) {
  LatticeConfig config;
  config.max_joins = max_joins;
  config.num_keyword_copies = copies;
  auto lattice = LatticeGenerator::Generate(schema, config);
  EXPECT_TRUE(lattice.ok());
  return std::move(*lattice);
}

void ExpectLatticesEquivalent(const Lattice& a, const Lattice& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_levels(), b.num_levels());
  for (NodeId id = 0; id < a.num_nodes(); ++id) {
    const std::string canonical = CanonicalLabel(a.node(id).tree);
    NodeId bid = b.FindByCanonical(canonical);
    ASSERT_NE(bid, kInvalidNode) << canonical;
    EXPECT_EQ(a.node(id).level, b.node(bid).level);
    EXPECT_EQ(a.node(id).children.size(), b.node(bid).children.size());
    EXPECT_EQ(a.node(id).parents.size(), b.node(bid).parents.size());
    // Children match up to canonical identity.
    std::set<std::string> ac, bc;
    for (NodeId c : a.node(id).children) {
      ac.insert(CanonicalLabel(a.node(c).tree));
    }
    for (NodeId c : b.node(bid).children) {
      bc.insert(CanonicalLabel(b.node(c).tree));
    }
    EXPECT_EQ(ac, bc);
  }
}

TEST(LatticeIoTest, RoundTripToySchema) {
  auto ds = BuildToyProductDatabase();
  ASSERT_TRUE(ds.ok());
  auto lattice = MakeToyLattice(ds->schema);
  std::ostringstream out;
  ASSERT_TRUE(SaveLattice(*lattice, &out).ok());
  std::istringstream in(out.str());
  auto loaded = LoadLattice(ds->schema, &in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectLatticesEquivalent(*lattice, **loaded);
  // Config survives.
  EXPECT_EQ((*loaded)->config().max_joins, 2u);
  EXPECT_EQ((*loaded)->config().num_keyword_copies, 2u);
  // Node/duplicate statistics survive (timings do not).
  ASSERT_EQ((*loaded)->level_stats().size(), lattice->level_stats().size());
  for (size_t i = 0; i < lattice->level_stats().size(); ++i) {
    EXPECT_EQ((*loaded)->level_stats()[i].kept,
              lattice->level_stats()[i].kept);
    EXPECT_EQ((*loaded)->level_stats()[i].duplicates,
              lattice->level_stats()[i].duplicates);
  }
}

TEST(LatticeIoTest, RoundTripDblifeSchema) {
  DblifeConfig config;
  config.num_persons = 20;
  config.num_publications = 30;
  config.num_conferences = 5;
  config.num_organizations = 6;
  config.num_topics = 5;
  auto ds = GenerateDblife(config);
  ASSERT_TRUE(ds.ok());
  LatticeConfig lconfig;
  lconfig.max_joins = 3;
  lconfig.num_keyword_copies = 2;
  auto lattice = LatticeGenerator::Generate(ds->schema, lconfig);
  ASSERT_TRUE(lattice.ok());
  std::ostringstream out;
  ASSERT_TRUE(SaveLattice(**lattice, &out).ok());
  std::istringstream in(out.str());
  auto loaded = LoadLattice(ds->schema, &in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectLatticesEquivalent(**lattice, **loaded);
}

TEST(LatticeIoTest, FileRoundTrip) {
  auto ds = BuildToyProductDatabase();
  ASSERT_TRUE(ds.ok());
  auto lattice = MakeToyLattice(ds->schema);
  const std::string path = testing::TempDir() + "/kwsdbg_lattice_test.lat";
  ASSERT_TRUE(SaveLatticeFile(*lattice, path).ok());
  auto loaded = LoadLatticeFile(ds->schema, path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->num_nodes(), lattice->num_nodes());
  EXPECT_FALSE(LoadLatticeFile(ds->schema, path + ".missing").ok());
}

TEST(LatticeIoTest, RejectsWrongSchema) {
  auto ds = BuildToyProductDatabase();
  ASSERT_TRUE(ds.ok());
  auto lattice = MakeToyLattice(ds->schema);
  std::ostringstream out;
  ASSERT_TRUE(SaveLattice(*lattice, &out).ok());
  SchemaGraph other;
  ASSERT_TRUE(other.AddRelation("X", true).ok());
  std::istringstream in(out.str());
  EXPECT_EQ(LoadLattice(other, &in).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(LatticeIoTest, RejectsGarbage) {
  auto ds = BuildToyProductDatabase();
  ASSERT_TRUE(ds.ok());
  {
    std::istringstream in("not a lattice");
    EXPECT_EQ(LoadLattice(ds->schema, &in).status().code(),
              StatusCode::kParseError);
  }
  {
    std::istringstream in("KWSDBGLAT 1\nconfig oops\n");
    EXPECT_FALSE(LoadLattice(ds->schema, &in).ok());
  }
}

TEST(LatticeIoTest, RejectsTruncatedNodeList) {
  auto ds = BuildToyProductDatabase();
  ASSERT_TRUE(ds.ok());
  auto lattice = MakeToyLattice(ds->schema);
  std::ostringstream out;
  ASSERT_TRUE(SaveLattice(*lattice, &out).ok());
  std::string text = out.str();
  // Cut the last 3 lines.
  for (int i = 0; i < 3; ++i) {
    text.erase(text.find_last_of('\n', text.size() - 2) + 1);
  }
  std::istringstream in(text);
  EXPECT_EQ(LoadLattice(ds->schema, &in).status().code(),
            StatusCode::kParseError);
}

TEST(LatticeIoTest, RejectsForgedCounts) {
  auto ds = BuildToyProductDatabase();
  ASSERT_TRUE(ds.ok());
  auto lattice = MakeToyLattice(ds->schema);
  std::ostringstream out;
  ASSERT_TRUE(SaveLattice(*lattice, &out).ok());
  const std::string text = out.str();
  const std::string nodes = "\nnodes " +
                            std::to_string(lattice->num_nodes()) + "\n";
  // Each forgery rewrites the first occurrence of `from` in the saved file.
  // Counts must not size an allocation, and a copy or edge endpoint outside
  // uint16_t must not wrap into a valid-looking id.
  const std::pair<std::string, std::string> forgeries[] = {
      {nodes, "\nnodes -1\n"},
      {nodes, "\nnodes 4000000000000\n"},
      {"config 2 text 2 0", "config 4000000000000 text 2 0"},
      {"\nn 0:1 |", "\nn 0:65537 |"},
      {"| 0,1,", "| 65536,1,"},
  };
  for (const auto& [from, to] : forgeries) {
    const size_t at = text.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    std::string forged = text;
    forged.replace(at, from.size(), to);
    std::istringstream in(forged);
    EXPECT_EQ(LoadLattice(ds->schema, &in).status().code(),
              StatusCode::kParseError)
        << to;
  }
}

TEST(LatticeIoTest, RejectsNodesOutOfLevelOrder) {
  // Ids are line order and must ascend with level (lattice/lattice.h):
  // swap the first level-1 node line with the first level-2 one.
  auto ds = BuildToyProductDatabase();
  ASSERT_TRUE(ds.ok());
  auto lattice = MakeToyLattice(ds->schema);
  std::ostringstream out;
  ASSERT_TRUE(SaveLattice(*lattice, &out).ok());
  std::vector<std::string> lines;
  std::istringstream text(out.str());
  for (std::string line; std::getline(text, line);) lines.push_back(line);
  size_t level1 = lines.size(), level2 = lines.size();
  for (size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind("n ", 0) != 0) continue;
    const bool single = lines[i].back() == '|';  // No edges after '|'.
    if (single && level1 == lines.size()) level1 = i;
    if (!single && level2 == lines.size()) level2 = i;
  }
  ASSERT_LT(level1, level2);
  ASSERT_LT(level2, lines.size());
  std::swap(lines[level1], lines[level2]);
  std::string swapped;
  for (const std::string& line : lines) swapped += line + "\n";
  std::istringstream in(swapped);
  EXPECT_EQ(LoadLattice(ds->schema, &in).status().code(),
            StatusCode::kParseError);
}

TEST(LatticeIoTest, LoadedLatticeIsUsableEndToEnd) {
  auto ds = BuildToyProductDatabase();
  ASSERT_TRUE(ds.ok());
  auto lattice = MakeToyLattice(ds->schema, 2, 3);
  std::ostringstream out;
  ASSERT_TRUE(SaveLattice(*lattice, &out).ok());
  std::istringstream in(out.str());
  auto loaded = LoadLattice(ds->schema, &in);
  ASSERT_TRUE(loaded.ok());
  // Descendant queries on the loaded lattice behave like on the original.
  for (NodeId id : lattice->NodesAtLevel(3)) {
    NodeId lid = (*loaded)->FindByCanonical(CanonicalLabel(
        lattice->node(id).tree));
    ASSERT_NE(lid, kInvalidNode);
    EXPECT_EQ(lattice->Descendants(id).size(),
              (*loaded)->Descendants(lid).size());
  }
}

TEST(LatticeIoTest, LoadedLatticeBuildsSamePrunedLattice) {
  // The copy-set index is derived on load, not stored: a reloaded lattice
  // must hand Phases 1-2 the same buckets, so Build agrees node for node
  // (ids are line order, which is generation order).
  DblifeConfig config;
  config.num_persons = 60;
  config.num_publications = 100;
  config.num_conferences = 10;
  config.num_organizations = 12;
  config.num_topics = 10;
  auto ds = GenerateDblife(config);
  ASSERT_TRUE(ds.ok());
  LatticeConfig lconfig;
  lconfig.max_joins = 3;
  lconfig.num_keyword_copies = 3;
  auto lattice = LatticeGenerator::Generate(ds->schema, lconfig);
  ASSERT_TRUE(lattice.ok());
  std::ostringstream out;
  ASSERT_TRUE(SaveLattice(**lattice, &out).ok());
  std::istringstream in(out.str());
  auto loaded = LoadLattice(ds->schema, &in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const CopySetIndex& a = (*lattice)->copy_sets();
  const CopySetIndex& b = (*loaded)->copy_sets();
  ASSERT_EQ(a.num_keys(), b.num_keys());
  for (size_t i = 0; i < a.num_keys(); ++i) {
    EXPECT_TRUE(std::ranges::equal(a.key(i), b.key(i))) << "key " << i;
    EXPECT_TRUE(std::ranges::equal(a.bucket(i), b.bucket(i))) << "key " << i;
  }

  InvertedIndex index = InvertedIndex::Build(*ds->db);
  KeywordBinder binder(&ds->schema, &index, 3);
  size_t interpretations = 0;
  for (const WorkloadQuery& q : PaperWorkload()) {
    for (const KeywordBinding& binding : binder.Bind(q.text).interpretations) {
      const PrunedLattice want = PrunedLattice::Build(**lattice, binding);
      const PrunedLattice got = PrunedLattice::Build(**loaded, binding);
      EXPECT_EQ(got.mtns(), want.mtns()) << q.id;
      EXPECT_EQ(got.retained(), want.retained()) << q.id;
      for (size_t level = 1; level <= lconfig.max_joins + 1; ++level) {
        EXPECT_EQ(got.LevelRange(level), want.LevelRange(level));
      }
      EXPECT_EQ(got.stats().surviving_nodes, want.stats().surviving_nodes);
      EXPECT_EQ(got.stats().mtn_desc_total, want.stats().mtn_desc_total);
      ++interpretations;
    }
  }
  EXPECT_GT(interpretations, 0u);
}

}  // namespace
}  // namespace kwsdbg
