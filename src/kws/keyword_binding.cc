#include "kws/keyword_binding.h"

#include <algorithm>

#include "common/logging.h"
#include "common/timer.h"
#include "text/tokenizer.h"

namespace kwsdbg {

KeywordBinding::KeywordBinding(std::vector<KeywordAssignment> assignments)
    : assignments_(std::move(assignments)) {
  for (size_t i = 0; i < assignments_.size(); ++i) {
    const RelationCopy& v = assignments_[i].vertex;
    KWSDBG_CHECK(v.copy >= 1) << "keyword bound to free copy";
    auto [it, inserted] =
        by_vertex_.emplace(std::make_pair(v.relation, v.copy), i);
    KWSDBG_CHECK(inserted) << "two keywords bound to one copy";
  }
  std::vector<std::string> parts;
  parts.reserve(assignments_.size());
  for (const KeywordAssignment& a : assignments_) {
    parts.push_back(std::to_string(a.vertex.relation) + ":" +
                    std::to_string(a.vertex.copy) + "=" + a.keyword);
  }
  std::sort(parts.begin(), parts.end());
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) signature_ += ';';
    signature_ += parts[i];
  }
}

bool KeywordBinding::IsBound(RelationCopy v) const {
  return by_vertex_.count(std::make_pair(v.relation, v.copy)) > 0;
}

const std::string* KeywordBinding::KeywordFor(RelationCopy v) const {
  auto it = by_vertex_.find(std::make_pair(v.relation, v.copy));
  if (it == by_vertex_.end()) return nullptr;
  return &assignments_[it->second].keyword;
}

std::string KeywordBinding::ToString(const SchemaGraph& schema) const {
  std::string out;
  for (size_t i = 0; i < assignments_.size(); ++i) {
    if (i > 0) out.append(", ");
    out.append(assignments_[i].keyword);
    out.append("->");
    out.append(schema.relation(assignments_[i].vertex.relation).name);
    out.push_back('[');
    out.append(std::to_string(assignments_[i].vertex.copy));
    out.push_back(']');
  }
  return out;
}

KeywordBinder::KeywordBinder(const SchemaGraph* schema,
                             const InvertedIndex* index,
                             size_t num_keyword_copies,
                             size_t max_interpretations)
    : schema_(schema),
      index_(index),
      num_keyword_copies_(num_keyword_copies),
      max_interpretations_(max_interpretations) {}

BindingResult KeywordBinder::Bind(const std::string& keyword_query) const {
  Timer timer;
  BindingResult result;
  result.keywords = TokenizeUnique(keyword_query);

  // Candidate text relations per keyword (inverted index lookup).
  std::vector<std::vector<RelationId>> candidates(result.keywords.size());
  for (size_t i = 0; i < result.keywords.size(); ++i) {
    for (const std::string& table :
         index_->TablesContaining(result.keywords[i])) {
      auto rid = schema_->RelationIdByName(table);
      if (rid.ok() && schema_->relation(*rid).has_text) {
        candidates[i].push_back(*rid);
      }
    }
    if (candidates[i].empty()) {
      result.missing_keywords.push_back(result.keywords[i]);
    }
  }
  // "If a keyword does not occur anywhere in the database, the system
  // displays all such keyword(s) and does not investigate the query any
  // further" (Sec. 2.3).
  if (!result.missing_keywords.empty() || result.keywords.empty()) {
    result.bind_millis = timer.ElapsedMillis();
    return result;
  }

  // Cartesian product over keywords, assigning successive copies within each
  // relation.
  std::vector<size_t> choice(result.keywords.size(), 0);
  while (true) {
    // Materialize this interpretation.
    std::unordered_map<RelationId, uint16_t> next_copy;
    std::vector<KeywordAssignment> assignments;
    bool ok = true;
    for (size_t i = 0; i < result.keywords.size(); ++i) {
      RelationId rel = candidates[i][choice[i]];
      uint16_t copy = ++next_copy[rel];  // copies start at 1
      if (copy > num_keyword_copies_) {
        ok = false;  // more keywords on this relation than lattice copies
        break;
      }
      assignments.push_back(
          KeywordAssignment{result.keywords[i], RelationCopy{rel, copy}});
    }
    if (ok) {
      if (result.interpretations.size() < max_interpretations_) {
        result.interpretations.emplace_back(std::move(assignments));
      } else {
        ++result.interpretations_skipped;
      }
    } else {
      ++result.interpretations_skipped;
    }
    // Advance the odometer.
    size_t i = 0;
    for (; i < choice.size(); ++i) {
      if (++choice[i] < candidates[i].size()) break;
      choice[i] = 0;
    }
    if (i == choice.size()) break;
  }
  result.bind_millis = timer.ElapsedMillis();
  return result;
}

}  // namespace kwsdbg
