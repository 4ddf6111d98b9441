#include "wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <thread>

#include "util.h"

namespace triqbench {

namespace {
constexpr int kReplyTimeoutS = 30;
}  // namespace

ServerProcess::~ServerProcess() { Kill(); }

bool ServerProcess::Start(const std::string& binary,
                          const std::vector<std::string>& args,
                          const std::string& log_stem, double timeout_s) {
  Kill();
  port_ = 0;
  killed_ = died_on_its_own_ = false;
  exit_signal_ = exit_code_ = 0;
  peak_rss_mb_ = 0;
  std::string out_path = log_stem + ".out";
  std::string err_path = log_stem + ".err";
  std::vector<std::string> argv_store = {binary};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);
  // A stale file from an earlier child would announce a dead port.
  unlink(out_path.c_str());

  pid_ = fork();
  if (pid_ < 0) return false;
  if (pid_ == 0) {
    int out = open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    int err = open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out < 0 || err < 0) _exit(127);
    dup2(out, STDOUT_FILENO);
    dup2(err, STDERR_FILENO);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }

  Clock::time_point start = Clock::now();
  while (SecondsSince(start) < timeout_s) {
    std::ifstream in(out_path);
    std::string word;
    if (in >> word && word == "LISTENING" && in >> port_) return true;
    if (!Alive()) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Kill();
  return false;
}

void ServerProcess::Reap(bool block) {
  if (pid_ <= 0) return;
  int status = 0;
  struct rusage usage {};
  pid_t got = wait4(pid_, &status, block ? 0 : WNOHANG, &usage);
  if (got != pid_) return;
  pid_ = -1;
  peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
  if (WIFSIGNALED(status)) exit_signal_ = WTERMSIG(status);
  if (WIFEXITED(status)) exit_code_ = WEXITSTATUS(status);
  // A crash can land between the last liveness check and Kill().
  died_on_its_own_ = !killed_ || exit_signal_ != SIGKILL;
}

bool ServerProcess::Alive() {
  Reap(false);
  return pid_ > 0;
}

void ServerProcess::Kill() {
  if (pid_ <= 0) return;
  Reap(false);
  if (pid_ <= 0) return;
  killed_ = true;
  kill(pid_, SIGKILL);
  Reap(true);
}

Connection::~Connection() {
  if (fd_ >= 0) close(fd_);
}

bool Connection::Connect(int port) {
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // A wedged server counts as a dead one instead of hanging the run.
  struct timeval timeout {};
  timeout.tv_sec = kReplyTimeoutS;
  setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  return connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                 sizeof(addr)) == 0;
}

bool Connection::ReadLine(std::string* line) {
  for (;;) {
    size_t pos = buffer_.find('\n');
    if (pos != std::string::npos) {
      line->assign(buffer_, 0, pos);
      buffer_.erase(0, pos + 1);
      return true;
    }
    char chunk[16384];
    ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

bool Connection::Call(const std::string& line, Reply* reply) {
  *reply = Reply();
  if (fd_ < 0) return false;
  std::string out = line + "\n";
  size_t sent = 0;
  while (sent < out.size()) {
    ssize_t n = send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  std::string got;
  while (ReadLine(&got)) {
    reply->bytes += got.size() + 1;
    if (got.rfind("OK", 0) == 0 || got.rfind("ERR", 0) == 0) {
      reply->ok = got[0] == 'O';
      reply->last = std::move(got);
      return true;
    }
    reply->rows.push_back(std::move(got));
  }
  return false;
}

}  // namespace triqbench
