// Command hostprof is the end-to-end CLI for the network-observer
// profiling pipeline:
//
//	hostprof gen        generate a synthetic world: trace, pcap, ontology, blocklist
//	hostprof sniff      extract a hostname trace from a pcap capture
//	hostprof train      train hostname embeddings from a trace
//	hostprof profile    profile a user's recent session with a trained model
//	hostprof similar    query nearest hostnames in embedding space
//	hostprof export     dump embeddings in word2vec text format
//	hostprof serve      run the profiling/ad back-end over HTTP
//	hostprof gateway    run the cluster router in front of N serve shards
//	hostprof report     post one traced session report to a running backend
//	hostprof status     render a one-page cluster dashboard from a gateway
//
// Every subcommand accepts -h for its flags. A typical session:
//
//	hostprof gen -out /tmp/world
//	hostprof sniff -pcap /tmp/world/capture.pcap -out /tmp/world/sniffed.jsonl
//	hostprof train -trace /tmp/world/sniffed.jsonl -model /tmp/world/model.bin
//	hostprof profile -model /tmp/world/model.bin -ontology /tmp/world/ontology.jsonl \
//	    -trace /tmp/world/sniffed.jsonl -user 3
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "sniff":
		err = cmdSniff(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "profile":
		err = cmdProfile(os.Args[2:])
	case "similar":
		err = cmdSimilar(os.Args[2:])
	case "export":
		err = cmdExport(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "gateway":
		err = cmdGateway(os.Args[2:])
	case "report":
		err = cmdReport(os.Args[2:])
	case "status":
		err = cmdStatus(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "hostprof: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hostprof %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: hostprof <command> [flags]

commands:
  gen       generate a synthetic world (trace, pcap, ontology, blocklist)
  sniff     extract hostname visits from a pcap file
  train     train hostname embeddings from a JSONL trace
  profile   profile a user session with a trained model
  similar   list nearest hostnames in embedding space
  export    dump a model in word2vec text format
  serve     run the profiling/ad back-end over HTTP
  gateway   run the cluster router (consistent-hash + scatter-gather) over serve shards
  report    post one traced session report to a running backend
  status    render a one-page cluster dashboard (health, federated metrics, events)`)
}
