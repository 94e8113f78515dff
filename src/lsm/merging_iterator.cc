#include "lsm/merging_iterator.h"

#include <utility>
#include <vector>

namespace tu::lsm {

void MergeHeap::Rebuild(std::span<Iterator* const> children) {
  heap_.clear();
  for (size_t i = 0; i < children.size(); ++i) {
    Iterator* it = children[i];
    if (it->Valid()) {
      heap_.push_back(Entry{it->key(), static_cast<uint32_t>(i), it});
    } else {
      Retire(it);
    }
  }
  if (!status_.ok()) {
    heap_.clear();
    return;
  }
  for (size_t i = heap_.size() / 2; i-- > 0;) SiftDown(i);
}

void MergeHeap::Reposition() {
  Iterator* it = heap_[0].it;
  if (it->Valid()) {
    heap_[0].key = it->key();
    SiftDown(0);
    return;
  }
  Retire(it);
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!status_.ok()) {
    heap_.clear();
    return;
  }
  if (!heap_.empty()) SiftDown(0);
}

void MergeHeap::SiftDown(size_t i) {
  const size_t n = heap_.size();
  while (true) {
    size_t smallest = i;
    const size_t l = 2 * i + 1;
    const size_t r = l + 1;
    if (l < n && Before(heap_[l], heap_[smallest])) smallest = l;
    if (r < n && Before(heap_[r], heap_[smallest])) smallest = r;
    if (smallest == i) return;
    std::swap(heap_[i], heap_[smallest]);
    i = smallest;
  }
}

namespace {

class MergingIterator : public Iterator {
 public:
  explicit MergingIterator(std::vector<std::unique_ptr<Iterator>> children)
      : children_(std::move(children)) {
    raw_.reserve(children_.size());
    for (const auto& child : children_) raw_.push_back(child.get());
  }

  bool Valid() const override { return !heap_.empty(); }

  void SeekToFirst() override {
    for (Iterator* child : raw_) child->SeekToFirst();
    heap_.Rebuild(raw_);
  }

  void Seek(const Slice& target) override {
    for (Iterator* child : raw_) child->Seek(target);
    heap_.Rebuild(raw_);
  }

  void Next() override {
    heap_.top()->Next();
    heap_.Reposition();
  }

  Slice key() const override { return heap_.top_key(); }
  Slice value() const override { return heap_.top()->value(); }

  /// Delegates the batched decode to the winning child (hitting its leaf
  /// override), then re-establishes the merge invariant.
  Status NextBatch(int member_slot, query::SampleBatch* batch) override {
    if (heap_.empty()) {
      batch->clear();
      return heap_.status();
    }
    TU_RETURN_IF_ERROR(heap_.top()->NextBatch(member_slot, batch));
    heap_.Reposition();
    return heap_.status();
  }

  Status status() const override { return heap_.status(); }

 private:
  std::vector<std::unique_ptr<Iterator>> children_;
  std::vector<Iterator*> raw_;
  MergeHeap heap_;
};

class EmptyIterator : public Iterator {
 public:
  bool Valid() const override { return false; }
  void SeekToFirst() override {}
  void Seek(const Slice&) override {}
  void Next() override {}
  Slice key() const override { return Slice(); }
  Slice value() const override { return Slice(); }
  Status status() const override { return Status::OK(); }
};

}  // namespace

std::unique_ptr<Iterator> NewMergingIterator(
    std::vector<std::unique_ptr<Iterator>> children) {
  if (children.empty()) return std::make_unique<EmptyIterator>();
  if (children.size() == 1) return std::move(children[0]);
  return std::make_unique<MergingIterator>(std::move(children));
}

}  // namespace tu::lsm
