#include "index/record_store.h"

namespace propeller::index {

RecordStore::RecordStore(sim::PageStore store) : store_(store) {}

uint64_t RecordStore::PageOf(FileId file) const {
  uint64_t pages = NumPages();
  uint64_t x = file * 0x9e3779b97f4a7c15ULL;
  x ^= x >> 29;
  return x % pages;
}

RecordStore::GetResult RecordStore::Get(FileId file) const {
  GetResult out;
  out.cost = store_.Read(PageOf(file));
  auto it = records_.find(file);
  if (it != records_.end()) out.attrs = it->second;
  return out;
}

RecordStore::PutResult RecordStore::Put(FileId file, AttrSet attrs,
                                        sim::PinScope* scope) {
  PutResult out;
  uint64_t page = PageOf(file);
  out.cost = store_.Read(page, scope);
  auto it = records_.find(file);
  if (it != records_.end()) {
    out.previous = std::move(it->second);
    bytes_ -= out.previous->ByteSize();
    bytes_ += attrs.ByteSize();
    it->second = std::move(attrs);
  } else {
    bytes_ += attrs.ByteSize();
    records_.emplace(file, std::move(attrs));
  }
  out.cost += store_.Write(page, scope);
  return out;
}

sim::Cost RecordStore::BulkLoad(std::vector<std::pair<FileId, AttrSet>> rows) {
  records_.reserve(rows.size());
  for (auto& [file, attrs] : rows) {
    auto it = records_.find(file);
    if (it != records_.end()) {
      bytes_ -= it->second.ByteSize();
      bytes_ += attrs.ByteSize();
      it->second = std::move(attrs);
    } else {
      bytes_ += attrs.ByteSize();
      records_.emplace(file, std::move(attrs));
    }
  }
  // One sequential pass writes the whole heap file.
  return store_.SequentialLoad(NumPages());
}

RecordStore::EraseResult RecordStore::Erase(FileId file,
                                            sim::PinScope* scope) {
  EraseResult out;
  uint64_t page = PageOf(file);
  out.cost = store_.Read(page, scope);
  auto it = records_.find(file);
  if (it != records_.end()) {
    out.previous = std::move(it->second);
    bytes_ -= out.previous->ByteSize();
    records_.erase(it);
    out.cost += store_.Write(page, scope);
  }
  return out;
}

}  // namespace propeller::index
