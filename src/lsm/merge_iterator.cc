#include "lsm/merge_iterator.h"

#include "util/macros.h"

namespace endure::lsm {

MergeIterator::MergeIterator(std::vector<EntryStream*> inputs)
    : inputs_(std::move(inputs)) {
  FindNext();
}

bool MergeIterator::Valid() const { return valid_; }

const Entry& MergeIterator::entry() const {
  ENDURE_DCHECK(valid_);
  return current_;
}

void MergeIterator::Next() {
  ENDURE_DCHECK(valid_);
  FindNext();
}

void MergeIterator::FindNext() {
  // Find the smallest key among the heads; among equal keys the
  // lowest-rank (newest) source wins and all other heads with that key are
  // consumed.
  valid_ = false;
  bool have_min = false;
  Key min_key = 0;
  size_t winner = 0;
  for (size_t i = 0; i < inputs_.size(); ++i) {
    if (inputs_[i] == nullptr || !inputs_[i]->Valid()) continue;
    const Key k = inputs_[i]->entry().key;
    if (!have_min || k < min_key) {
      have_min = true;
      min_key = k;
      winner = i;  // first (lowest-rank) source seen with this key
    }
  }
  if (!have_min) return;
  current_ = inputs_[winner]->entry();
  valid_ = true;
  // Consume every head carrying min_key.
  for (EntryStream* input : inputs_) {
    if (input == nullptr) continue;
    while (input->Valid() && input->entry().key == min_key) input->Next();
  }
}

}  // namespace endure::lsm
