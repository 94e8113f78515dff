#include "cloud/block_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "cloud/fault_injector.h"
#include "util/mmap_file.h"

namespace tu::cloud {

namespace {

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(BlockStore* store, std::string fname, int fd,
                    uint64_t size)
      : store_(store), fname_(std::move(fname)), fd_(fd), size_(size) {}

  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(const Slice& data) override {
    // fsync-failure discipline: after a failed Sync the kernel may have
    // dropped the dirty pages while marking them clean, so neither another
    // Append nor a retried fsync can make this fd durable again. The
    // handle is poisoned; the caller must rebuild the file.
    if (!sync_poison_.ok()) return sync_poison_;
    size_t write_bytes = data.size();
    Status injected;
    if (store_->fault() != nullptr) {
      size_t keep = 0;
      injected = store_->fault()->InterceptWrite(FaultOp::kAppend, fname_,
                                                 data.size(), &keep);
      if (!injected.ok()) {
        store_->CountFault();
        if (keep == 0) return injected;
        // Torn write: the prefix still reaches the file before the error.
        write_bytes = keep;
      }
    }
    // Silent at-rest corruption: a write-side corruption rule replaces the
    // payload while the Append still reports success.
    std::string corrupted;
    const char* p = data.data();
    if (store_->fault() != nullptr) {
      corrupted.assign(data.data(), write_bytes);
      if (store_->fault()->InterceptWritePayload(FaultOp::kAppend, fname_,
                                                 &corrupted)) {
        store_->CountFault();
        p = corrupted.data();
        write_bytes = corrupted.size();
      }
    }
    size_t left = write_bytes;
    while (left > 0) {
      ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IOError("write " + fname_ + ": " + strerror(errno));
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
    size_ += write_bytes;
    store_->ChargeWrite(write_bytes);
    return injected;
  }

  Status Flush() override { return Status::OK(); }

  Status Sync() override {
    // Never re-fsync a poisoned fd: a second fdatasync after a failure can
    // return OK without the lost pages ever reaching disk (fsyncgate).
    if (!sync_poison_.ok()) return sync_poison_;
    if (store_->fault() != nullptr) {
      Status injected = store_->fault()->Intercept(FaultOp::kSync, fname_);
      if (!injected.ok()) {
        store_->CountFault();
        sync_poison_ = injected;
        return injected;
      }
    }
    if (::fdatasync(fd_) != 0) {
      sync_poison_ =
          Status::IOError("fdatasync " + fname_ + ": " + strerror(errno));
      return sync_poison_;
    }
    return Status::OK();
  }

  Status Close() override {
    if (fd_ >= 0 && ::close(fd_) != 0) {
      fd_ = -1;
      return Status::IOError("close " + fname_ + ": " + strerror(errno));
    }
    fd_ = -1;
    return Status::OK();
  }

  uint64_t Size() const override { return size_; }

 private:
  BlockStore* store_;
  std::string fname_;
  int fd_;
  uint64_t size_;
  Status sync_poison_;  // first Sync failure; latched, never retried
};

class PosixRandomAccessFile : public RandomAccessFile {
 public:
  PosixRandomAccessFile(BlockStore* store, std::string fname, int fd,
                        uint64_t size)
      : store_(store), fname_(std::move(fname)), fd_(fd), size_(size) {}

  ~PosixRandomAccessFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Read(uint64_t offset, size_t n, Slice* result,
              std::string* scratch) const override {
    if (store_->fault() != nullptr) {
      Status injected = store_->fault()->Intercept(FaultOp::kGet, fname_);
      if (!injected.ok()) {
        store_->CountFault();
        return injected;
      }
    }
    scratch->resize(n);
    ssize_t got = ::pread(fd_, scratch->data(), n, static_cast<off_t>(offset));
    if (got < 0) {
      return Status::IOError("pread " + fname_ + ": " + strerror(errno));
    }
    scratch->resize(static_cast<size_t>(got));
    if (store_->fault() != nullptr) {
      // Silent on-read corruption: bytes mutate between the disk and the
      // caller; only a checksum can tell.
      store_->fault()->InterceptReadPayload(FaultOp::kGet, fname_, scratch);
    }
    *result = Slice(scratch->data(), scratch->size());
    store_->ChargeRead(fname_, static_cast<uint64_t>(got));
    if (n > 0 && got == 0) {
      // Same boundary rule as ObjectStore::GetRange: short reads within the
      // file are fine, but a start offset at or past EOF is a caller error.
      return Status::InvalidArgument("offset " + std::to_string(offset) +
                                     " at or beyond size of " + fname_);
    }
    return Status::OK();
  }

  uint64_t Size() const override { return size_; }

 private:
  BlockStore* store_;
  std::string fname_;
  int fd_;
  uint64_t size_;
};

}  // namespace

BlockStore::BlockStore(std::string root_dir, TierSimOptions sim)
    : root_(std::move(root_dir)), sim_(sim) {
  EnsureDir(root_);
}

Status BlockStore::NewWritableFile(const std::string& fname,
                                   std::unique_ptr<WritableFile>* out) {
  if (fault() != nullptr) {
    Status injected = fault()->Intercept(FaultOp::kOpen, fname);
    if (!injected.ok()) {
      CountFault();
      return injected;
    }
  }
  const std::string path = FullPath(fname);
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + strerror(errno));
  }
  out->reset(new PosixWritableFile(this, fname, fd, 0));
  return Status::OK();
}

Status BlockStore::NewAppendableFile(const std::string& fname,
                                     std::unique_ptr<WritableFile>* out) {
  if (fault() != nullptr) {
    Status injected = fault()->Intercept(FaultOp::kOpen, fname);
    if (!injected.ok()) {
      CountFault();
      return injected;
    }
  }
  const std::string path = FullPath(fname);
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("fstat " + path + ": " + strerror(errno));
  }
  out->reset(new PosixWritableFile(this, fname, fd,
                                   static_cast<uint64_t>(st.st_size)));
  return Status::OK();
}

Status BlockStore::NewRandomAccessFile(const std::string& fname,
                                       std::unique_ptr<RandomAccessFile>* out) {
  if (fault() != nullptr) {
    Status injected = fault()->Intercept(FaultOp::kOpen, fname);
    if (!injected.ok()) {
      CountFault();
      return injected;
    }
  }
  const std::string path = FullPath(fname);
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound(fname);
    return Status::IOError("open " + path + ": " + strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("fstat " + path + ": " + strerror(errno));
  }
  out->reset(new PosixRandomAccessFile(this, fname, fd,
                                       static_cast<uint64_t>(st.st_size)));
  return Status::OK();
}

Status BlockStore::ReadFileToString(const std::string& fname,
                                    std::string* out) {
  std::unique_ptr<RandomAccessFile> file;
  TU_RETURN_IF_ERROR(NewRandomAccessFile(fname, &file));
  Slice result;
  TU_RETURN_IF_ERROR(file->Read(0, file->Size(), &result, out));
  out->resize(result.size());
  return Status::OK();
}

Status BlockStore::WriteStringToFile(const std::string& fname,
                                     const Slice& data, bool sync) {
  const std::string tmp = fname + ".tmp";
  std::unique_ptr<WritableFile> file;
  TU_RETURN_IF_ERROR(NewWritableFile(tmp, &file));
  TU_RETURN_IF_ERROR(file->Append(data));
  if (sync) TU_RETURN_IF_ERROR(file->Sync());
  TU_RETURN_IF_ERROR(file->Close());
  return RenameFile(tmp, fname);
}

Status BlockStore::DeleteFile(const std::string& fname) {
  if (fault() != nullptr) {
    Status injected = fault()->Intercept(FaultOp::kDelete, fname);
    if (!injected.ok()) {
      CountFault();
      return injected;
    }
  }
  counters_.delete_ops.fetch_add(1, std::memory_order_relaxed);
  if (::unlink(FullPath(fname).c_str()) != 0) {
    if (errno == ENOENT) return Status::NotFound(fname);
    return Status::IOError("unlink " + fname + ": " + strerror(errno));
  }
  return Status::OK();
}

Status BlockStore::RenameFile(const std::string& src, const std::string& dst) {
  if (fault() != nullptr) {
    Status injected = fault()->Intercept(FaultOp::kRename, src);
    if (!injected.ok()) {
      CountFault();
      return injected;
    }
  }
  if (::rename(FullPath(src).c_str(), FullPath(dst).c_str()) != 0) {
    return Status::IOError("rename " + src + " -> " + dst + ": " +
                           strerror(errno));
  }
  return Status::OK();
}

Status BlockStore::FileExists(const std::string& fname) const {
  if (fault() != nullptr) {
    Status injected = fault()->Intercept(FaultOp::kStat, fname);
    if (!injected.ok()) {
      CountFault();
      return injected;
    }
  }
  struct stat st;
  if (::stat(FullPath(fname).c_str(), &st) != 0) {
    return Status::NotFound(fname);
  }
  return Status::OK();
}

Status BlockStore::GetFileSize(const std::string& fname,
                               uint64_t* size) const {
  if (fault() != nullptr) {
    Status injected = fault()->Intercept(FaultOp::kStat, fname);
    if (!injected.ok()) {
      CountFault();
      return injected;
    }
  }
  struct stat st;
  if (::stat(FullPath(fname).c_str(), &st) != 0) {
    return Status::NotFound(fname);
  }
  *size = static_cast<uint64_t>(st.st_size);
  return Status::OK();
}

Status BlockStore::ListDir(const std::string& dir,
                           std::vector<std::string>* names) const {
  if (fault() != nullptr) {
    Status injected = fault()->Intercept(FaultOp::kList, dir);
    if (!injected.ok()) {
      CountFault();
      return injected;
    }
  }
  names->clear();
  std::error_code ec;
  const std::string path = dir.empty() ? root_ : FullPath(dir);
  for (const auto& entry : std::filesystem::directory_iterator(path, ec)) {
    names->push_back(entry.path().filename().string());
  }
  if (ec) return Status::IOError("listdir " + dir + ": " + ec.message());
  return Status::OK();
}

Status BlockStore::CreateDir(const std::string& dir) {
  return EnsureDir(FullPath(dir));
}

Status BlockStore::CorruptFileAtRest(const std::string& fname, uint64_t offset,
                                     uint8_t xor_mask) {
  const std::string path = FullPath(fname);
  int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound(fname);
    return Status::IOError("open " + path + ": " + strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size == 0) {
    ::close(fd);
    return Status::InvalidArgument("cannot corrupt empty file " + fname);
  }
  off_t pos = static_cast<off_t>(
      std::min<uint64_t>(offset, static_cast<uint64_t>(st.st_size) - 1));
  char b = 0;
  if (::pread(fd, &b, 1, pos) != 1) {
    ::close(fd);
    return Status::IOError("pread " + path + ": " + strerror(errno));
  }
  b = static_cast<char>(static_cast<uint8_t>(b) ^
                        (xor_mask != 0 ? xor_mask : 0x01));
  ssize_t wrote = ::pwrite(fd, &b, 1, pos);
  ::close(fd);
  if (wrote != 1) {
    return Status::IOError("pwrite " + path + ": " + strerror(errno));
  }
  return Status::OK();
}

uint64_t BlockStore::TotalBytesUsed() const {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root_, ec)) {
    if (entry.is_regular_file(ec)) {
      total += entry.file_size(ec);
    }
  }
  return total;
}

void BlockStore::ChargeRead(const std::string& fname, uint64_t bytes) {
  counters_.get_ops.fetch_add(1, std::memory_order_relaxed);
  counters_.bytes_read.fetch_add(bytes, std::memory_order_relaxed);
  const bool first = MarkRead(fname);
  ChargeLatency(sim_, &counters_, sim_.ChargeUs(bytes, first));
}

void BlockStore::ChargeWrite(uint64_t bytes) {
  counters_.put_ops.fetch_add(1, std::memory_order_relaxed);
  counters_.bytes_written.fetch_add(bytes, std::memory_order_relaxed);
  ChargeLatency(sim_, &counters_, sim_.ChargeUs(bytes, false));
}

bool BlockStore::MarkRead(const std::string& fname) {
  std::lock_guard<std::mutex> lock(mu_);
  return read_before_.insert(fname).second;
}

}  // namespace tu::cloud
