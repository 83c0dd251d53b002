// Email store: "ask non-technical friends where their email is physically located" (§2.1).
//
// Here email has no location at all: messages are objects tagged by the application
// (Table 1's APP/USER rows), with bodies in the full-text index. Folders, labels, and
// threads are all just tags; search is the only access path and never feels missing.
//
//   $ ./examples/email_search
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/core/filesystem.h"
#include "src/storage/block_device.h"

using hfad::MemoryBlockDevice;
using hfad::core::FileSystem;
using hfad::core::ObjectId;

namespace {

void Check(const hfad::Status& s, const char* what) {
  if (!s.ok()) {
    fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
    exit(1);
  }
}

struct Message {
  const char* from;
  const char* label;
  const char* subject;
  const char* body;
};

const Message kMailbox[] = {
    {"pc-chair", "inbox", "HotOS 2009 decision",
     "We are delighted to inform you that your position paper has been accepted"},
    {"pc-chair", "inbox", "Camera ready deadline",
     "The camera ready deadline for accepted papers is April 10 2009"},
    {"nick", "inbox", "draft comments",
     "I read the hFAD draft and the namespace section needs a figure"},
    {"nick", "archive", "benchmark results",
     "The btree insert benchmark finished, numbers attached, looks sublinear"},
    {"gradstudent", "inbox", "prototype crash",
     "The fuse prototype crashed during recovery, journal replay stack attached"},
    {"vendor", "spam", "Cheap disks",
     "Buy three hundred gigabyte disks for the price of one"},
    {"margo", "sent", "Re: draft comments",
     "Good catch, I added the architecture figure and tightened section three"},
    {"sysadmin", "inbox", "Quota warning",
     "Your home directory has exceeded its quota, please delete large files"},
};

}  // namespace

int main() {
  auto device = std::make_shared<MemoryBlockDevice>(64ull << 20);
  auto fs_or = FileSystem::Create(device);
  Check(fs_or.status(), "create volume");
  auto& fs = *fs_or;

  // The mail client is just another application tagging its objects (Table 1: APP +
  // USER), plus its own annotations under UDEF.
  printf("delivering %zu messages...\n", std::size(kMailbox));
  for (const Message& m : kMailbox) {
    auto msg = fs->Create({{"APP", "mailer"},
                           {"USER", "margo"},
                           {"UDEF", std::string("from:") + m.from},
                           {"UDEF", std::string("label:") + m.label}});
    Check(msg.status(), "create message");
    std::string rfc822 = std::string("Subject: ") + m.subject + "\n\n" + m.body;
    Check(fs->Write(*msg, 0, rfc822), "write message");
    Check(fs->IndexContent(*msg), "index message");
  }

  // "Where is your email?" — wrong question. "Which mail mentions the deadline?":
  auto deadline = fs->SearchText({"deadline"});
  Check(deadline.status(), "search");
  printf("messages mentioning 'deadline':        %zu\n", deadline->size());
  for (const auto& hit : *deadline) {
    std::string subject;
    Check(fs->Read(hit.docid, 0, 120, &subject), "read");
    subject = subject.substr(0, subject.find('\n'));
    printf("  oid %-3llu score %.3f  %s\n", (unsigned long long)hit.docid, hit.score,
           subject.c_str());
  }

  // Labels are tags; a folder listing is a lookup.
  auto inbox = fs->Lookup({{"APP", "mailer"}, {"UDEF", "label:inbox"}});
  Check(inbox.status(), "lookup inbox");
  printf("inbox:                                 %zu\n", inbox->size());

  // Boolean mail filters compose naturally.
  auto filtered = fs->Query(
      "APP:mailer AND UDEF:from:nick AND NOT UDEF:label:archive");
  Check(filtered.status(), "filter");
  printf("from nick, not archived:               %zu\n", filtered->size());

  // Conjunction of content terms (§3.1.1's FULLTEXT/S1, FULLTEXT/S2 example).
  auto both = fs->Lookup({{"FULLTEXT", "journal"}, {"FULLTEXT", "recovery"}});
  Check(both.status(), "content conjunction");
  printf("mentions journal AND recovery:         %zu\n", both->size());

  // Refile = retag; no data moves. Move nick's benchmark mail to inbox.
  auto archived = fs->Lookup({{"UDEF", "label:archive"}});
  Check(archived.status(), "lookup");
  for (ObjectId oid : *archived) {
    Check(fs->RemoveTag(oid, {"UDEF", "label:archive"}), "untag");
    Check(fs->AddTag(oid, {"UDEF", "label:inbox"}), "retag");
  }
  auto inbox2 = fs->Lookup({{"APP", "mailer"}, {"UDEF", "label:inbox"}});
  Check(inbox2.status(), "lookup inbox");
  printf("inbox after refiling:                  %zu\n", inbox2->size());

  // Spam purge: find, then remove objects entirely (names, postings, bytes).
  auto spam = fs->Lookup({{"UDEF", "label:spam"}});
  Check(spam.status(), "lookup spam");
  for (ObjectId oid : *spam) {
    Check(fs->Remove(oid), "purge");
  }
  auto disks = fs->SearchText({"disks"});
  Check(disks.status(), "search");
  printf("mentions of 'disks' after spam purge:  %zu\n", disks->size());

  Check(fs->Checkpoint(), "checkpoint");
  printf("OK\n");
  return 0;
}
